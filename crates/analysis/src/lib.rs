//! # perfvar-analysis — the paper's core contribution
//!
//! Implements the three-step methodology of *"Detection and Visualization
//! of Performance Variations to Guide Identification of Application
//! Bottlenecks"* (Weber et al., ICPP 2016):
//!
//! 1. **Identify the time-dominant function** (§IV) — [`dominant`]:
//!    among functions invoked at least `2p` times (`p` = process count),
//!    the one with the highest aggregated *inclusive* time. Its
//!    invocations partition the run into *segments*.
//! 2. **Compute runtime imbalances** (§V) — [`segment`] and [`sos`]:
//!    each segment's duration is the invocation's inclusive time; the
//!    **synchronization-oblivious segment time (SOS-time)** subtracts all
//!    time spent in synchronization/communication functions inside the
//!    segment, revealing which *process* is actually slow rather than who
//!    waits for whom.
//! 3. **Guide the analyst** (§VI–VII) — [`imbalance`] flags outlier
//!    processes and segments; [`counters`] correlates hardware-counter
//!    channels with SOS-times (the paper's WRF validation); [`report`]
//!    assembles everything into a hotspot report. Rendering lives in the
//!    `perfvar-viz` crate.
//!
//! The foundation is [`invocation`]: a call-stack replay that turns each
//! process's event stream into a list of function invocations with
//! inclusive/exclusive times (the paper's Fig. 1 semantics) and the
//! synchronization time contained in each. The default pipeline
//! ([`report::analyze`]) *fuses* those semantics into one streaming pass
//! per process (see [`stream`] and [`fused`]); for traces too large to
//! load at all, [`outofcore::analyze_path`] drives the identical fused
//! pipeline straight from the on-disk file through the incremental
//! cursors of `perfvar-trace`, holding only per-worker streaming state.
//!
//! ```
//! use perfvar_analysis::prelude::*;
//! use perfvar_sim::prelude::*;
//!
//! let trace = simulate(&workloads::SingleOutlier::new(4, 8, 2).spec()).unwrap();
//! let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
//! // The injected outlier (rank 2) dominates the SOS-time matrix.
//! assert_eq!(analysis.imbalance.hottest_process().unwrap().index(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod callpath;
pub mod clustering;
pub mod compare;
pub mod counters;
pub mod diagnose;
pub mod dominant;
mod driver;
pub mod findings;
pub mod fused;
pub mod imbalance;
pub mod invocation;
pub mod live;
pub mod messages;
pub mod options;
pub mod outofcore;
pub mod parallel;
pub mod part;
pub mod phases;
pub mod profile;
pub mod report;
pub mod segment;
pub mod sos;
pub mod stream;
pub mod telemetry;
pub mod waitstates;

/// Convenient glob-import of the analysis pipeline.
pub mod prelude {
    pub use crate::activity::{activity_of_path, fold_on_axis, Activity, BucketGrid, BucketRun};
    pub use crate::callpath::{CallPathId, CallTree};
    pub use crate::clustering::{Cluster, ClusterConfig, ProcessClustering};
    pub use crate::compare::{
        bisect_first_regression, BisectOutcome, FunctionDelta, RunComparison, RunSummary, Verdict,
        VerdictClass, DEFAULT_NOISE_THRESHOLD,
    };
    pub use crate::counters::{correlate_with_sos, CounterMatrix};
    pub use crate::diagnose::{
        diagnose_analysis, diagnose_meta, DiagnoseConfig, DiagnosedCluster, Diagnosis,
        WaveDiagnosis,
    };
    pub use crate::dominant::{DominantRanking, DominantSelection};
    pub use crate::findings::{auto_refine, findings, findings_meta, Finding, FindingKind};
    pub use crate::fused::{fuse_segments, FusedSegments};
    pub use crate::imbalance::{ImbalanceAnalysis, Outlier, WasteAnalysis};
    pub use crate::invocation::{Invocation, ProcessInvocations};
    pub use crate::live::{FunctionTotal, LiveAnalysis, LiveDelta, LiveSnapshot, RankSnapshot};
    pub use crate::messages::{
        CommMatrix, Endpoint, MatchedMessage, MessageAnalysis, RankEndpoints,
    };
    pub use crate::options::{AnalysisOptions, DiagnoseOptions, OptionsError};
    pub use crate::outofcore::{
        analyze_path, analyze_path_observed, analyze_path_with, OutOfCoreAnalysis,
        PathAnalysisError, RecoveryMode, StreamFailure,
    };
    pub use crate::part::{archive_part, archive_part_observed, AnalysisPart, PartOutcome};
    pub use crate::phases::{Phase, PhaseConfig, PhaseDetection};
    pub use crate::profile::FunctionProfile;
    pub use crate::report::{
        analyze, analyze_observed, analyze_reference, Analysis, AnalysisConfig, AnalysisError,
    };
    pub use crate::segment::{Segment, Segmentation, Segments};
    pub use crate::sos::SosMatrix;
    pub use crate::stream::{replay_visit, ClosedFrame, ReplayMachine, ReplayVisitor};
    pub use crate::telemetry::{PipelineStats, Progress, Stage, Telemetry};
    pub use crate::waitstates::{ProcessWaitStates, WaitStateAnalysis};
}

pub use activity::{activity_of_path, fold_on_axis, Activity, BucketGrid};
pub use callpath::CallTree;
pub use clustering::ProcessClustering;
pub use compare::{
    bisect_first_regression, BisectOutcome, FunctionDelta, RunComparison, Verdict, VerdictClass,
    DEFAULT_NOISE_THRESHOLD,
};
pub use counters::CounterMatrix;
pub use diagnose::{
    diagnose_analysis, diagnose_meta, DiagnoseConfig, DiagnosedCluster, Diagnosis, WaveDiagnosis,
};
pub use dominant::{DominantRanking, DominantSelection};
pub use fused::{fuse_segments, FusedSegments};
pub use imbalance::ImbalanceAnalysis;
pub use invocation::{Invocation, ProcessInvocations};
pub use live::{LiveAnalysis, LiveDelta, LiveSnapshot};
pub use options::{AnalysisOptions, DiagnoseOptions, OptionsError};
pub use outofcore::{
    analyze_path, analyze_path_observed, analyze_path_with, OutOfCoreAnalysis, PathAnalysisError,
    RecoveryMode, StreamFailure,
};
pub use part::{archive_part, archive_part_observed, AnalysisPart, PartOutcome};
pub use profile::FunctionProfile;
pub use report::{
    analyze, analyze_observed, analyze_reference, Analysis, AnalysisConfig, AnalysisError,
};
pub use segment::{Segment, Segmentation, Segments};
pub use sos::SosMatrix;
pub use stream::{replay_visit, ClosedFrame, ReplayMachine, ReplayVisitor};
pub use telemetry::{PipelineStats, Telemetry};
