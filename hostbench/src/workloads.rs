//! The four workloads, defined here and nowhere else: an edit to a figure
//! binary or to the repository's own bench helpers cannot change what this
//! benchmark measures.  Every input derives from the `--seed` argument.

use onoc_ecc_codes::EccScheme;
use onoc_link::{NanophotonicLink, ThermalLinkStack, TrafficClass};
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{DecisionPolicy, ScenarioBuilder, ScenarioConfig};
use onoc_thermal::{
    BankTuningMode, FabricationVariation, RcNetworkParameters, ThermalEnvironment, WorkloadTrace,
};
use onoc_topology::{FabricSpec, Topology};
use onoc_units::Celsius;

use crate::stats::SplitMix;

/// The three schemes the paper evaluates.
pub const SCHEMES: [EccScheme; 3] = [
    EccScheme::Uncoded,
    EccScheme::Hamming7164,
    EccScheme::Hamming74,
];

/// Decoded-BER target of the scenario workloads (the paper's Fig. 6).
pub const NOMINAL_BER: f64 = 1e-11;

/// Fabrication spread of the varied chips, in nm (σ = 40 pm).
pub const SIGMA_NM: f64 = 0.040;

/// Wavelength lanes of the paper channel; the barrel-shift window spans it.
pub const LANES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveSweep,
    FleetCold,
    RoutedMesh,
    PermsgHotspot,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::SolveSweep,
        Self::FleetCold,
        Self::RoutedMesh,
        Self::PermsgHotspot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::SolveSweep => "solve-sweep",
            Self::FleetCold => "fleet-cold",
            Self::RoutedMesh => "routed-mesh",
            Self::PermsgHotspot => "permsg-hotspot",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---------------------------------------------------------------------------
// solve-sweep: cold operating-point solves over the paper's design space.
// ---------------------------------------------------------------------------

/// σ = 40 pm chip instances the varied third of the sweep draws from.
pub const SWEEP_CHIPS: usize = 8;

/// Ops in one pass of the sweep; the timed phase cycles through the pass.
/// A multiple of 3 schemes × 3 bank slots × `SWEEP_CHIPS`, so every scheme
/// gets the same share of every bank.  Kept small so a 25-second run times
/// each op 40–50 times (see `README.md`, *Steadiness*).
pub const SWEEP_OPS: usize = 7 * 3 * 3 * SWEEP_CHIPS;

/// Which ring bank an op is solved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bank {
    /// The paper's uniform bank.
    Uniform,
    /// Varied chip `i` under barrel-shift tuning.
    Chip(usize),
}

/// One cold `operating_point_at` call.
#[derive(Debug, Clone, Copy)]
pub struct SweepOp {
    pub scheme: EccScheme,
    pub ber: f64,
    pub temperature: Celsius,
    pub bank: Bank,
}

/// The sweep's set-up: the links it solves on.
pub struct SweepLinks {
    pub uniform: NanophotonicLink,
    pub chips: Vec<NanophotonicLink>,
}

/// A σ = 40 pm chip under full-window barrel-shift tuning.
fn varied_chip(chip_seed: u64) -> NanophotonicLink {
    NanophotonicLink::paper_link()
        .with_fabrication_variation(FabricationVariation::new(SIGMA_NM, chip_seed))
        .with_bank_tuning_mode(BankTuningMode::full_barrel_shift(LANES))
}

/// Seed of varied chip `index` under the workload seed.
fn chip_seed(seed: u64, index: usize) -> u64 {
    SplitMix::new(seed ^ 0xC41F_0000 ^ index as u64).next_u64()
}

impl SweepLinks {
    /// The paper link plus `SWEEP_CHIPS` seeded varied chips.
    pub fn build(seed: u64) -> Self {
        Self {
            uniform: NanophotonicLink::paper_link(),
            chips: (0..SWEEP_CHIPS)
                .map(|i| varied_chip(chip_seed(seed, i)))
                .collect(),
        }
    }

    pub fn link(&self, bank: Bank) -> &NanophotonicLink {
        match bank {
            Bank::Uniform => &self.uniform,
            Bank::Chip(i) => &self.chips[i],
        }
    }
}

/// The seeded op list: paper schemes × BER log-uniform in [1e-12, 1e-3] ×
/// 25–85 °C, two thirds on the uniform bank and one third on a varied chip.
/// The 2:1 split keeps the median op inside the uniform bank's cost mode;
/// an even split puts it on the edge between the two banks' modes, where a
/// percent of mix moves `op_p50_us` by a tenth.
///
/// The list is stratified so that its cost mix is the same under every
/// seed: op `i` takes scheme `i % 3` and bank slot `(i / 3) % 3` (two
/// uniform slots, one slot cycling over the chips), and BER and temperature
/// are Latin-hypercube draws: each of the `SWEEP_OPS` equal strata of each
/// axis holds exactly one op, at a seeded position within the stratum.
pub fn sweep_ops(seed: u64) -> Vec<SweepOp> {
    let mut rng = SplitMix::new(seed);
    let strata = |rng: &mut SplitMix| {
        let mut order: Vec<usize> = (0..SWEEP_OPS).collect();
        for i in (1..SWEEP_OPS).rev() {
            order.swap(i, rng.below(i + 1));
        }
        order
    };
    let ber_strata = strata(&mut rng);
    let temperature_strata = strata(&mut rng);
    let mut draw = |stratum: usize| (stratum as f64 + rng.unit()) / SWEEP_OPS as f64;
    (0..SWEEP_OPS)
        .map(|i| SweepOp {
            scheme: SCHEMES[i % SCHEMES.len()],
            ber: 10f64.powf(-12.0 + 9.0 * draw(ber_strata[i])),
            temperature: Celsius::new(25.0 + 60.0 * draw(temperature_strata[i])),
            bank: if (i / 3) % 3 < 2 {
                Bank::Uniform
            } else {
                Bank::Chip((i / 9) % SWEEP_CHIPS)
            },
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Scenario workloads.
// ---------------------------------------------------------------------------

/// `fleet-cold`: homogeneous ONIs on one shared cache, spread over a
/// 0–300 mW workload ramp so the fleet walks many 0.05 K decision buckets.
pub const FLEET_ONIS: usize = 1_000;
pub const FLEET_MESSAGES_PER_NODE: u64 = 50;
pub const FLEET_MAX_WORKLOAD_MW: f64 = 300.0;
pub const FLEET_QUANTIZATION_K: f64 = 0.05;

/// `routed-mesh`: a 256-node hybrid mesh of 16-node photonic clusters.
pub const MESH_NODES: usize = 256;
pub const MESH_CLUSTER: usize = 16;
pub const MESH_CROSSTALK: f64 = 0.03;
pub const MESH_MESSAGES_PER_NODE: u64 = 400;

/// `permsg-hotspot`: per-message decisions over a prescribed hotspot.
pub const PERMSG_ONIS: usize = 256;
pub const PERMSG_MESSAGES_PER_NODE: u64 = 4_000;

/// A scenario workload's configuration plus the facts its checks need.
#[derive(Clone)]
pub struct ScenarioSpec {
    pub builder: ScenarioBuilder,
    pub messages: u64,
    /// Threads the timed and traced reps run on.
    pub threads: usize,
    /// Threads of the once-per-invocation check, whose report must equal
    /// the reps': the other side of the serial/parallel split.
    pub check_threads: usize,
}

impl ScenarioSpec {
    /// The workload's spec on a host with `nproc` threads.  `fleet-cold`
    /// runs on one thread: its re-ask fan-outs split the ramp into
    /// contiguous chunks, so the shard holding the hot half does most of
    /// the solves and a second thread gains nothing, while a run that needs
    /// both vCPUs of a shared host spreads twice as wide (see `README.md`,
    /// *Steadiness*).  Its check still runs the `nproc`-thread path.
    pub fn new(workload: Workload, seed: u64, nproc: usize) -> Option<Self> {
        let (builder, oni_count, per_node) = match workload {
            Workload::SolveSweep => return None,
            Workload::FleetCold => {
                let top = (FLEET_ONIS - 1) as f64;
                let traces = (0..FLEET_ONIS)
                    .map(|oni| WorkloadTrace::constant(FLEET_MAX_WORKLOAD_MW * oni as f64 / top))
                    .collect();
                let builder = base(FLEET_ONIS, FLEET_MESSAGES_PER_NODE, seed)
                    .words_per_message(1)
                    .mean_inter_arrival_ns(5.0)
                    .workload_heated(RcNetworkParameters::paper_package(), traces)
                    .policy(DecisionPolicy::EpochGated {
                        epoch_ns: 25.0,
                        quantization_k: FLEET_QUANTIZATION_K,
                        hysteresis_k: 0.0,
                        revert_hysteresis_k: 10.0,
                    })
                    .cache_resolution(1.0 / FLEET_QUANTIZATION_K);
                (builder, FLEET_ONIS, FLEET_MESSAGES_PER_NODE)
            }
            Workload::RoutedMesh => {
                let fabric = FabricSpec::new(Topology::hybrid_mesh(MESH_NODES, MESH_CLUSTER))
                    .with_crosstalk(MESH_CROSSTALK);
                let builder = base(MESH_NODES, MESH_MESSAGES_PER_NODE, seed)
                    .words_per_message(8)
                    .mean_inter_arrival_ns(6.0)
                    .activity_coupled(RcNetworkParameters::paper_package())
                    .policy(DecisionPolicy::epoch_gated())
                    .topology(fabric);
                (builder, MESH_NODES, MESH_MESSAGES_PER_NODE)
            }
            Workload::PermsgHotspot => {
                let builder = base(PERMSG_ONIS, PERMSG_MESSAGES_PER_NODE, seed)
                    .words_per_message(16)
                    .mean_inter_arrival_ns(10.0)
                    .prescribed(ThermalEnvironment::Hotspot {
                        base: Celsius::new(25.0),
                        peak: Celsius::new(70.0),
                        center: 0,
                        decay_per_hop: 0.5,
                    })
                    .policy(DecisionPolicy::per_message());
                (builder, PERMSG_ONIS, PERMSG_MESSAGES_PER_NODE)
            }
        };
        let threads = if workload == Workload::FleetCold {
            1
        } else {
            nproc
        };
        Some(Self {
            builder: builder.threads(threads),
            messages: oni_count as u64 * per_node,
            threads,
            check_threads: if threads == 1 { nproc } else { 1 },
        })
    }
}

/// The link a scenario builds for ONI 0's reader channel, from the same
/// public pieces the scenario uses: the paper link under the scenario's
/// thermal stack (crosstalk-adjusted for the node's fabric link when the
/// scenario has a topology) at the scenario's cache resolution.  The
/// scenario workloads' fleets are homogeneous, so every ONI's link is this
/// one.
pub fn scenario_link(config: &ScenarioConfig) -> NanophotonicLink {
    let fabric_stack = config.topology.as_ref().and_then(|fabric| {
        let base = config
            .stack
            .clone()
            .unwrap_or_else(ThermalLinkStack::paper_default);
        fabric.link_stack(&base, fabric.topology.reader_link(0)?)
    });
    let mut link = NanophotonicLink::paper_link();
    if let Some(stack) = fabric_stack.or_else(|| config.stack.clone()) {
        link = link.with_thermal_stack(stack);
    }
    match config.cache_buckets_per_kelvin {
        Some(buckets) => link.clone().with_cache_resolution(buckets).unwrap_or(link),
        None => link,
    }
}

fn base(oni_count: usize, messages_per_node: u64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(oni_count)
        .pattern(TrafficPattern::UniformRandom { messages_per_node })
        .class(TrafficClass::LatencyFirst)
        .nominal_ber(NOMINAL_BER)
        .seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_ops_are_stratified_and_seeded() {
        let ops = sweep_ops(7);
        assert_eq!(ops.len(), SWEEP_OPS);
        for scheme in SCHEMES {
            let of = |bank: Bank| {
                ops.iter()
                    .filter(|op| op.scheme == scheme && op.bank == bank)
                    .count()
            };
            assert_eq!(of(Bank::Uniform), 2 * SWEEP_OPS / 9);
            for chip in 0..SWEEP_CHIPS {
                assert_eq!(of(Bank::Chip(chip)), SWEEP_OPS / 9 / SWEEP_CHIPS);
            }
        }
        // One op in each of the SWEEP_OPS equal strata of each axis.
        let strata = |position: &dyn Fn(&SweepOp) -> f64| {
            let mut hit = vec![false; SWEEP_OPS];
            for op in &ops {
                hit[(position(op) * SWEEP_OPS as f64) as usize] = true;
            }
            hit.iter().all(|&h| h)
        };
        assert!(strata(&|op| (op.ber.log10() + 12.0) / 9.0));
        assert!(strata(&|op| (op.temperature.value() - 25.0) / 60.0));
        let again = sweep_ops(7);
        assert!(ops
            .iter()
            .zip(&again)
            .all(|(a, b)| a.ber == b.ber && a.temperature == b.temperature && a.bank == b.bank));
        assert!(ops.iter().zip(sweep_ops(8)).any(|(a, b)| a.ber != b.ber));
    }
}
