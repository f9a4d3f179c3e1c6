//! The benchmark's four workloads and the inputs they generate from a seed.

use parbs_sim::{EvalJob, EvalPlan, SchedulerKind, SimConfig};
use parbs_workloads::{
    all_benchmarks, case_study_1, case_study_2, case_study_3, fig10_named, BenchmarkProfile,
    MixSpec, CATEGORIES,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's case studies CS1–CS3 (Figs. 5–7) on the 4-core,
    /// 1-channel Table-2 system, one `System::run` per job.
    Case4,
    /// Fig. 10's `intensive16` mix on 16 cores and 4 channels.
    Heavy16,
    /// Fig. 10's `non-intensive16` mix on 16 cores and 4 channels.
    Light16,
    /// Seeded 4-core mixes ([`balanced_mixes`]) through `Harness::run_plan`
    /// on a cold harness.
    Sweep4,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Case4, Workload::Heavy16, Workload::Light16, Workload::Sweep4];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Case4 => "case4",
            Workload::Heavy16 => "heavy16",
            Workload::Light16 => "light16",
            Workload::Sweep4 => "sweep4",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through the harness executor and its
    /// alone-run cache rather than as single shared simulations.
    #[must_use]
    pub fn is_sweep(self) -> bool {
        self == Workload::Sweep4
    }
}

/// Run length: instructions per thread for each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Per-thread instruction target of `case4`.
    pub case4_target: u64,
    /// Per-thread instruction target of `heavy16`.
    pub heavy16_target: u64,
    /// Per-thread instruction target of `light16`.
    pub light16_target: u64,
    /// Per-thread instruction target of `sweep4`'s shared and alone runs.
    pub sweep4_target: u64,
}

impl Scale {
    /// The benchmark's run length. Each target is sized so that one round
    /// of the workload's jobs takes a few seconds on a 2-CPU host, so a run
    /// holds several rounds to take a median over.
    pub const BENCH: Scale = Scale {
        case4_target: 12_000,
        heavy16_target: 8_000,
        light16_target: 60_000,
        sweep4_target: 2_000,
    };

    /// A run length small enough for tests.
    pub const TINY: Scale =
        Scale { case4_target: 200, heavy16_target: 150, light16_target: 200, sweep4_target: 200 };

    /// The per-thread instruction target of `workload`.
    #[must_use]
    pub fn target(&self, workload: Workload) -> u64 {
        match workload {
            Workload::Case4 => self.case4_target,
            Workload::Heavy16 => self.heavy16_target,
            Workload::Light16 => self.light16_target,
            Workload::Sweep4 => self.sweep4_target,
        }
    }
}

/// A workload's generated inputs: the harness configuration and the
/// (mix, scheduler) jobs, in plan order.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Base configuration of every job (streams are seeded from it).
    pub cfg: SimConfig,
    /// The jobs: every mix × the seven-scheduler zoo.
    pub plan: EvalPlan,
}

/// Generates `workload`'s inputs from `seed`: the stream seed of every job
/// and, for `sweep4`, the random mixes.
#[must_use]
pub fn inputs(workload: Workload, seed: u64, scale: &Scale) -> Inputs {
    let (cores, mixes): (usize, Vec<MixSpec>) = match workload {
        Workload::Case4 => (4, vec![case_study_1(), case_study_2(), case_study_3()]),
        Workload::Heavy16 => (16, vec![named16("intensive16")]),
        Workload::Light16 => (16, vec![named16("non-intensive16")]),
        Workload::Sweep4 => (4, balanced_mixes(seed)),
    };
    let cfg = SimConfig {
        target_instructions: scale.target(workload),
        seed,
        ..SimConfig::for_cores(cores)
    };
    let mut plan = EvalPlan::new();
    for mix in &mixes {
        for kind in SchedulerKind::zoo_seven() {
            plan.push(EvalJob::new(mix.clone(), kind));
        }
    }
    Inputs { cfg, plan }
}

fn named16(name: &str) -> MixSpec {
    fig10_named()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("Fig. 10 defines the {name} mix"))
}

/// Seeded 4-core mixes under the paper's rule that a mix draws its
/// benchmarks from distinct categories, balanced so that every seed yields
/// the same amount of work: each of the 70 four-of-eight category subsets
/// forms one mix, and each category deals its benchmarks round-robin from a
/// seed-shuffled order, so every benchmark appears within one of equally
/// often. The seed changes the pairings, the core order and the streams.
///
/// `random_mixes(4, n, seed)` draws each mix independently instead; the
/// number of mixes holding the costliest benchmark (mcf) then varies with
/// the seed enough to move a sweep's wall time by a quarter.
#[must_use]
pub fn balanced_mixes(seed: u64) -> Vec<MixSpec> {
    let mut rng = SplitMix64(seed);
    let mut subsets: Vec<Vec<u8>> = (0u32..1 << CATEGORIES.len())
        .filter(|m| m.count_ones() == 4)
        .map(|m| CATEGORIES.iter().copied().filter(|&c| m >> c & 1 == 1).collect())
        .collect();
    rng.shuffle(&mut subsets);
    let mut pools: Vec<Vec<&'static BenchmarkProfile>> = CATEGORIES
        .iter()
        .map(|&c| all_benchmarks().iter().filter(|b| b.category == c).collect())
        .collect();
    for pool in &mut pools {
        rng.shuffle(pool);
    }
    let mut dealt = vec![0usize; pools.len()];
    subsets
        .into_iter()
        .enumerate()
        .map(|(i, mut cats)| {
            rng.shuffle(&mut cats);
            let benchmarks = cats
                .iter()
                .map(|&c| {
                    let c = usize::from(c);
                    let bench = pools[c][dealt[c] % pools[c].len()];
                    dealt[c] += 1;
                    bench
                })
                .collect();
            MixSpec { name: format!("mix{i:03}"), benchmarks }
        })
        .collect()
}

/// SplitMix64: a small seeded generator for the mix shuffles.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
