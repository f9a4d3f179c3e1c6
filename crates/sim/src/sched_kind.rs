//! Scheduler selection: the five policies of the paper's evaluation plus
//! the post-PAR-BS zoo members (BLISS, ATLAS).

use parbs::{ParBsConfig, ParBsScheduler};
use parbs_baselines::{
    AtlasConfig, AtlasScheduler, BlissConfig, BlissScheduler, FcfsScheduler, FrFcfsScheduler,
    NfqScheduler, StfmScheduler,
};
use parbs_dram::{MemoryScheduler, ThreadId};

use crate::SimConfig;

/// One of the evaluated scheduling policies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-come-first-serve.
    Fcfs,
    /// First-ready FCFS (the baseline controller).
    FrFcfs,
    /// Network fair queueing (FQ-VFTF).
    Nfq,
    /// Start-time fair queueing (Rafique et al., PACT 2007) — the NFQ
    /// improvement referenced in the paper's related work.
    Stfq,
    /// Stall-time fair memory scheduling.
    Stfm,
    /// Parallelism-aware batch scheduling with the given configuration.
    ParBs(ParBsConfig),
    /// Blacklisting scheduling (Subramanian et al.) with the given
    /// threshold and clearing interval.
    Bliss(BlissConfig),
    /// Adaptive per-thread least-attained-service scheduling (Kim et al.)
    /// with the given quantum.
    Atlas(AtlasConfig),
}

impl SchedulerKind {
    /// The five schedulers of Figures 5-10 in paper order, with PAR-BS in
    /// its default (Marking-Cap 5, full batching, Max-Total) configuration.
    #[must_use]
    pub fn paper_five() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::FrFcfs,
            SchedulerKind::Fcfs,
            SchedulerKind::Nfq,
            SchedulerKind::Stfm,
            SchedulerKind::ParBs(ParBsConfig::default()),
        ]
    }

    /// The full scheduler zoo: the paper's five followed by BLISS and ATLAS
    /// in their default configurations.
    #[must_use]
    pub fn zoo_seven() -> Vec<SchedulerKind> {
        let mut kinds = Self::paper_five();
        kinds.push(SchedulerKind::Bliss(BlissConfig::default()));
        kinds.push(SchedulerKind::Atlas(AtlasConfig::default()));
        kinds
    }

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::Nfq => "NFQ",
            SchedulerKind::Stfq => "STFQ",
            SchedulerKind::Stfm => "STFM",
            SchedulerKind::ParBs(_) => "PAR-BS",
            SchedulerKind::Bliss(_) => "BLISS",
            SchedulerKind::Atlas(_) => "ATLAS",
        }
    }

    /// Parses a scheduler name, case-insensitively: `FCFS`, `FR-FCFS` (or
    /// `FRFCFS`), `NFQ`, `STFQ`, `STFM`, `PAR-BS` (or `PARBS`), `BLISS` or
    /// `ATLAS`, each in its default configuration. `None` for anything else.
    #[must_use]
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        match name.to_ascii_uppercase().as_str() {
            "FCFS" => Some(SchedulerKind::Fcfs),
            "FR-FCFS" | "FRFCFS" => Some(SchedulerKind::FrFcfs),
            "NFQ" => Some(SchedulerKind::Nfq),
            "STFQ" => Some(SchedulerKind::Stfq),
            "STFM" => Some(SchedulerKind::Stfm),
            "PAR-BS" | "PARBS" => Some(SchedulerKind::ParBs(ParBsConfig::default())),
            "BLISS" => Some(SchedulerKind::Bliss(BlissConfig::default())),
            "ATLAS" => Some(SchedulerKind::Atlas(AtlasConfig::default())),
            _ => None,
        }
    }

    /// Instantiates a scheduler for one memory controller, applying the
    /// per-thread weights (NFQ/STFM) or priorities (PAR-BS) in `cfg`.
    #[must_use]
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn MemoryScheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
            SchedulerKind::FrFcfs => Box::new(FrFcfsScheduler::new()),
            SchedulerKind::Nfq => {
                let mut s = NfqScheduler::new();
                for t in 0..cfg.cores {
                    s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::Stfq => {
                let mut s = NfqScheduler::stfq();
                for t in 0..cfg.cores {
                    s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::Stfm => {
                let mut s = StfmScheduler::new();
                for t in 0..cfg.cores {
                    s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::ParBs(pc) => {
                let mut s = ParBsScheduler::new(*pc);
                for t in 0..cfg.cores {
                    s.set_thread_priority(ThreadId(t), cfg.priority_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::Bliss(bc) => Box::new(BlissScheduler::with_config(*bc)),
            SchedulerKind::Atlas(ac) => Box::new(AtlasScheduler::with_config(*ac)),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_five_in_figure_order() {
        let names: Vec<&str> =
            SchedulerKind::paper_five().iter().map(super::SchedulerKind::name).collect();
        assert_eq!(names, ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS"]);
    }

    #[test]
    fn zoo_seven_extends_the_paper_order() {
        let names: Vec<&str> =
            SchedulerKind::zoo_seven().iter().map(super::SchedulerKind::name).collect();
        assert_eq!(names, ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS", "BLISS", "ATLAS"]);
    }

    #[test]
    fn parse_round_trips_every_name_in_any_case() {
        for kind in SchedulerKind::zoo_seven().into_iter().chain([SchedulerKind::Stfq]) {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind.clone()));
            assert_eq!(SchedulerKind::parse(&kind.name().to_lowercase()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("parbs"), SchedulerKind::parse("PAR-BS"));
        assert_eq!(SchedulerKind::parse("FrFcfs"), Some(SchedulerKind::FrFcfs));
        assert_eq!(SchedulerKind::parse("LRU"), None);
    }

    #[test]
    fn build_produces_matching_names() {
        let cfg = SimConfig::for_cores(4);
        for kind in SchedulerKind::zoo_seven() {
            assert_eq!(kind.build(&cfg).name(), kind.name());
        }
        assert_eq!(SchedulerKind::Stfq.build(&cfg).name(), "STFQ");
    }
}
