//! Absolute outcome pins for every registry kernel.
//!
//! The slow, solo and batched injection engines all run on the same
//! interpreter, so the differential oracles (`batch_equivalence`,
//! `checkpoint_equivalence`, ...) would keep agreeing with each other
//! after a semantic slip in it. These pins do not depend on the
//! interpreter: they are fixed numbers, recorded once, that every kernel
//! must keep reproducing.
//!
//! Per kernel, at `Scale::Eval`:
//! - the FNV-1a of the fault-free output region and the retired
//!   instruction count, under the thread-serial and the
//!   `warp_lockstep(32)` schedules;
//! - the FNV-1a of the outcome vector of a fixed 150-site sampled
//!   campaign (seed [`SAMPLE_SEED`]) at batch 1 (solo fast path) and
//!   batch 16;
//! - where injected runs resume: the FNV-1a of the `retired()` sequence
//!   of the golden checkpoints at the default capture cadence, and of
//!   `batch_group_key` over every dynamic instruction of the golden trace
//!   (a site's key does not depend on its bit, so this covers every site
//!   of the full site space).

use fault_site_pruning::inject::{Experiment, FaultSite, InjectionTarget, WeightedSite};
use fault_site_pruning::pruning::{PruningConfig, PruningPipeline};
use fault_site_pruning::sim::{CheckpointConfig, NopHook, Simulator};
use fault_site_pruning::workloads::{self, Scale};
use fsp_obs::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the sampled campaign.
const SAMPLE_SEED: u64 = 1_007_341;

/// Sites in the sampled campaign.
const SAMPLE_SITES: usize = 150;

/// One kernel's pinned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    id: &'static str,
    /// Output FNV and retired instructions, thread-serial schedule.
    serial: (u64, u64),
    /// Output FNV and retired instructions, `warp_lockstep(32)`.
    warp: (u64, u64),
    /// Outcome-vector FNV of the sampled campaign at batch 1.
    batch1: u64,
    /// Outcome-vector FNV of the sampled campaign at batch 16.
    batch16: u64,
    /// FNV of the golden checkpoints' `retired()` sequence and of every
    /// dynamic instruction's `batch_group_key`.
    resume: (u64, u64),
}

impl std::fmt::Display for Pin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pin({:?}, ({:#018x}, {}), ({:#018x}, {}), {:#018x}, {:#018x}, ({:#018x}, {:#018x})),",
            self.id,
            self.serial.0,
            self.serial.1,
            self.warp.0,
            self.warp.1,
            self.batch1,
            self.batch16,
            self.resume.0,
            self.resume.1
        )
    }
}

const fn pin(
    id: &'static str,
    serial: (u64, u64),
    warp: (u64, u64),
    batch1: u64,
    batch16: u64,
    resume: (u64, u64),
) -> Pin {
    Pin {
        id,
        serial,
        warp,
        batch1,
        batch16,
        resume,
    }
}

/// Recorded before the decoded-op interpreter replaced the
/// instruction-walking one; the `resume` pairs, before golden capture,
/// cold runs and resumes were merged into one thread-serial CTA loop.
const PINS: [Pin; 17] = [
    pin(
        "hotspot",
        (0x32eceea8a7c724cd, 34502),
        (0x32eceea8a7c724cd, 34502),
        0x11cf3f47e8dbf866,
        0x11cf3f47e8dbf866,
        (0x56d3572c0b94bf59, 0x37edd9a4e2e734b5),
    ),
    pin(
        "kmeans_k1",
        (0x133e4491cf155d7d, 7976),
        (0x133e4491cf155d7d, 7976),
        0x7ade5d808c809ad0,
        0x7ade5d808c809ad0,
        (0x3ad7d2eb60ba5580, 0x99fe49747f4fa2e5),
    ),
    pin(
        "kmeans_k2",
        (0xd99dc339f5a78814, 43770),
        (0xd99dc339f5a78814, 43770),
        0x535054a7d783321e,
        0x535054a7d783321e,
        (0x70445950ba8ab701, 0xd1f0a25274495774),
    ),
    pin(
        "gaussian_k1",
        (0xf0e5535990264cc8, 583),
        (0xf0e5535990264cc8, 583),
        0x07cca67eb4ab556f,
        0x07cca67eb4ab556f,
        (0x56223402afc21b8f, 0x8fe153e012f4b871),
    ),
    pin(
        "gaussian_k2",
        (0x5dfed746a67d5661, 7001),
        (0x5dfed746a67d5661, 7001),
        0x0c277cc5d760aa0d,
        0x0c277cc5d760aa0d,
        (0x8a104e80ecc331ac, 0xb841cb4f2c6c6812),
    ),
    pin(
        "gaussian_k125",
        (0x002448df0416961b, 511),
        (0x002448df0416961b, 511),
        0x936cdd0bb6277212,
        0x936cdd0bb6277212,
        (0xf677a3984ef3baa5, 0x6ca0de7a52d92f06),
    ),
    pin(
        "gaussian_k126",
        (0x053570189b29c2af, 3873),
        (0x053570189b29c2af, 3873),
        0x5a1e65232d3da000,
        0x5a1e65232d3da000,
        (0xd55476a75f71bd30, 0x63852249a06c14cb),
    ),
    pin(
        "pathfinder",
        (0x8ffaa9381e2a059e, 28374),
        (0x8ffaa9381e2a059e, 28374),
        0xe9a6e3cdc617e95d,
        0xe9a6e3cdc617e95d,
        (0x9d0bd8c16525b2c5, 0x256838d57d5c00e4),
    ),
    pin(
        "lud_k44",
        (0xec96a5efd07cc02c, 7976),
        (0xec96a5efd07cc02c, 7976),
        0x33e4b6c46cfb864f,
        0x33e4b6c46cfb864f,
        (0x3ad7d2eb60ba5580, 0x3e359d37800ca565),
    ),
    pin(
        "lud_k45",
        (0x0a1907ff49a5ea18, 3776),
        (0x0a1907ff49a5ea18, 3776),
        0x62914fbd15e4df05,
        0x62914fbd15e4df05,
        (0x47bfa97fabc1b965, 0xaf3a945652b19165),
    ),
    pin(
        "lud_k46",
        (0x580ebf244f54746d, 2146),
        (0x580ebf244f54746d, 2146),
        0x69cd24ec7c8e4531,
        0x69cd24ec7c8e4531,
        (0xd9ac7568a162fecd, 0xf3f017cb5d42b805),
    ),
    pin(
        "2dconv",
        (0xfee7f3600579be4f, 13554),
        (0xfee7f3600579be4f, 13554),
        0x284dc3a8f1801936,
        0x284dc3a8f1801936,
        (0x003c609fd38a11c9, 0x44acd015f5793594),
    ),
    pin(
        "mvt",
        (0x31f9aa7de91bdb09, 37632),
        (0x31f9aa7de91bdb09, 37632),
        0x4fdb9b39b343722c,
        0x4fdb9b39b343722c,
        (0xd7925098b5254b75, 0x8e734d2bcd056725),
    ),
    pin(
        "2mm",
        (0xde1060a471400464, 41728),
        (0xde1060a471400464, 41728),
        0xa48f44fdfe5bf4b5,
        0xa48f44fdfe5bf4b5,
        (0x1e6d45bf41cee845, 0x19ab1b625af1b925),
    ),
    pin(
        "gemm",
        (0xe2283f466aad4602, 46080),
        (0xe2283f466aad4602, 46080),
        0x3bd5207e190e41aa,
        0x3bd5207e190e41aa,
        (0xf85754829d54c695, 0xe58efa1b473f5b25),
    ),
    pin(
        "syrk",
        (0x907554586f3ceda1, 46080),
        (0x907554586f3ceda1, 46080),
        0x0088788c2931b138,
        0x0088788c2931b138,
        (0xf85754829d54c695, 0xe58efa1b473f5b25),
    ),
    pin(
        "nn",
        (0xd4ab35fb380d58b0, 9584),
        (0xd4ab35fb380d58b0, 9584),
        0x38d229b1f423270b,
        0x38d229b1f423270b,
        (0x196ed467ec470b8a, 0xf72082f16e437825),
    ),
];

/// Output FNV and retired instructions of a fault-free run under `sim`.
fn fault_free(w: &workloads::Workload, sim: Simulator) -> (u64, u64) {
    let mut memory = w.init_memory();
    let stats = sim
        .run(&w.launch(), &mut memory, &mut NopHook)
        .expect("fault-free run");
    let (addr, len) = w.output_region();
    let mut h = Fnv1a::new();
    for word in memory.read_words(addr, len) {
        h.write_u32(word);
    }
    (h.finish(), stats.instructions)
}

fn measure(w: &workloads::Workload) -> Pin {
    let mut experiment = Experiment::prepare(w).expect("fault-free run");
    let space = experiment.site_space(0..w.launch().num_threads());
    let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
    let sites: Vec<WeightedSite> = space
        .sample_many(SAMPLE_SITES, &mut rng)
        .into_iter()
        .map(WeightedSite::from)
        .collect();
    let mut campaign = |batch: usize| {
        experiment.set_batch(batch);
        let mut h = Fnv1a::new();
        for o in experiment.run_campaign(&sites, 2).outcomes {
            h.write(&[o.code()]);
        }
        h.finish()
    };
    let (batch1, batch16) = (campaign(1), campaign(16));
    let mut keys = Fnv1a::new();
    for (tid, &icnt) in (0..).zip(&space.trace().icnt) {
        for dyn_idx in 0..icnt {
            let (cta, key) = experiment.batch_group_key(FaultSite {
                tid,
                dyn_idx,
                bit: 0,
            });
            keys.write_u32(cta);
            keys.write_u64(key as u64);
        }
    }
    Pin {
        id: w.registry_id(),
        serial: fault_free(w, Simulator::new()),
        warp: fault_free(w, Simulator::warp_lockstep(32)),
        batch1,
        batch16,
        resume: (checkpoint_positions(w), keys.finish()),
    }
}

/// FNV of the `retired()` sequence of the golden checkpoints captured at
/// the default cadence.
fn checkpoint_positions(w: &workloads::Workload) -> u64 {
    let (_, checkpoints) = Simulator::new()
        .run_with_checkpoints(
            &w.launch(),
            &mut w.init_memory(),
            &mut NopHook,
            CheckpointConfig::default(),
        )
        .expect("fault-free run");
    let mut h = Fnv1a::new();
    for c in &checkpoints {
        h.write_u64(c.retired());
    }
    h.finish()
}

/// Every registry kernel reproduces its pinned fault-free outputs,
/// instruction counts and sampled outcome vectors. On a mismatch the
/// message lists the measured table, one `pin(...)` line per kernel.
#[test]
fn registry_kernels_reproduce_their_pins() {
    let measured: Vec<Pin> = workloads::all(Scale::Eval).iter().map(measure).collect();
    let ids: Vec<&str> = measured.iter().map(|p| p.id).collect();
    let pinned: Vec<&str> = PINS.iter().map(|p| p.id).collect();
    assert_eq!(ids, pinned, "registry order changed");
    let diverged: Vec<&str> = measured
        .iter()
        .zip(&PINS)
        .filter(|(m, p)| m != p)
        .map(|(m, _)| m.id)
        .collect();
    let table: String = measured.iter().map(|p| format!("    {p}\n")).collect();
    assert!(
        diverged.is_empty(),
        "kernels diverged from their pins: {diverged:?}\nmeasured:\n{table}"
    );
}

/// FNV-1a of the paper-default plan's sites and weights at `Scale::Paper`,
/// per kernel in registry order. Recorded while planning still traced the
/// kernel twice (a summary pass, then a representatives pass).
const PAPER_PLAN_PINS: [(&str, u64); 17] = [
    ("hotspot", 0x1dfa0af134275d50),
    ("kmeans_k1", 0x5116f2f01488f6ea),
    ("kmeans_k2", 0x9f3bff5e844d40c0),
    ("gaussian_k1", 0xe627fdc319a6088b),
    ("gaussian_k2", 0xa39cd4475439e44c),
    ("gaussian_k125", 0x2841344f82238a5f),
    ("gaussian_k126", 0x64c942dbbfd88f7b),
    ("pathfinder", 0x5e2392a8982312e7),
    ("lud_k44", 0x39dc224a54012cd2),
    ("lud_k45", 0x6d7d7ce175709d5d),
    ("lud_k46", 0xff58e4ac8d0dfe5f),
    ("2dconv", 0x19db0976d29924de),
    ("mvt", 0xc75985ff9db4c3ec),
    ("2mm", 0xbe03be4bccd2cc8e),
    ("gemm", 0x61f3a7ba1804422f),
    ("syrk", 0xdf63a70396476fc9),
    ("nn", 0xb882c3dba67a43b4),
];

/// FNV-1a of `w`'s paper-default plan: every planned site and its weight.
fn plan_fnv(w: &workloads::Workload) -> u64 {
    let experiment = Experiment::prepare(w).expect("fault-free run");
    let plan = PruningPipeline::new(PruningConfig::default())
        .plan_for(&experiment)
        .expect("plan");
    let mut h = Fnv1a::new();
    for ws in &plan.sites {
        h.write_u32(ws.site.tid);
        h.write_u32(ws.site.dyn_idx);
        h.write_u32(ws.site.bit);
        h.write_u64(ws.weight.to_bits());
    }
    h.finish()
}

/// Every registry kernel plans the same paper-scale pruned campaign. On a
/// mismatch the message lists the measured table.
#[test]
fn paper_scale_plans_reproduce_their_pins() {
    let measured: Vec<(&str, u64)> = workloads::all(Scale::Paper)
        .iter()
        .map(|w| (w.registry_id(), plan_fnv(w)))
        .collect();
    let table: String = measured
        .iter()
        .map(|(id, h)| format!("    ({id:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        measured, PAPER_PLAN_PINS,
        "paper-scale plans diverged from their pins\nmeasured:\n{table}"
    );
}
