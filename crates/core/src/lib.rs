//! # naas — Neural Accelerator Architecture Search
//!
//! A from-scratch reproduction of *NAAS: Neural Accelerator Architecture
//! Search* (Lin, Yang, Han — DAC 2021): data-driven co-search of the
//! accelerator architecture, the compiler mapping, and (optionally) the
//! neural architecture, in one nested optimization loop (paper Fig. 1).
//!
//! * the **inner loop** ([`mapping_search`]) finds, per layer, the loop
//!   order and tiling minimizing EDP on a given design;
//! * the **outer loop** ([`accel_search`]) evolves accelerator designs —
//!   sizing *and* connectivity — scoring each by its mapping-searched EDP
//!   over a benchmark suite (geomean reward);
//! * the **joint loop** ([`joint`]) adds the Once-For-All NAS level from
//!   §II-C: per accelerator candidate, an evolutionary subnet search under
//!   an accuracy floor supplies the workload.
//!
//! [`baselines`] re-implements the comparison points (sizing-only search,
//! NASAIC, NHAS) and [`cost_accounting`] reproduces the Table-IV search
//! cost model.
//!
//! Every loop executes through the [`engine`] module's
//! [`CoSearchEngine`] (the `naas-engine` subsystem): work-stealing
//! parallel candidate evaluation, a per-candidate content-addressed memo
//! of per-layer mapping results, and serializable search state with
//! checkpoint/resume ([`AccelSearchState`]). Results are bit-identical
//! at any thread count.
//!
//! ```no_run
//! use naas::prelude::*;
//!
//! let model = CostModel::new();
//! let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
//! let nets = [models::mobilenet_v2(224)];
//! let cfg = AccelSearchConfig::quick(42);
//! let result = search_accelerator(&model, &nets, &envelope, &cfg);
//! println!("best design:\n{}", result.best.accelerator.design_card());
//! ```

pub mod accel_search;
pub mod baselines;
pub mod cost_accounting;
pub mod distributed;
pub mod engine;
pub mod gateway;
pub mod joint;
pub mod mapping_search;
pub mod pareto;
pub mod pipeline;
pub mod reward;
pub mod service;

pub use accel_search::{
    accel_commit_generation, accel_sample_generation, accel_search_init, accel_search_step,
    accel_search_step_with, resume_accel_search, search_accelerator, search_accelerator_seeded,
    search_accelerator_with, AccelCandidate, AccelSearchConfig, AccelSearchResult,
    AccelSearchState, CandidateEval, IterationStats, NoValidDesign, SampledGeneration,
    SearchStrategy,
};
pub use distributed::{
    validate_scheduler_flags, DistributedCoordinator, SchedulerStats, ShardPlan, SharedCoordinator,
};
pub use engine::CoSearchEngine;
pub use gateway::{GatewayConfig, GatewayService, JobStatus};
pub use joint::{
    evaluate_joint_candidate, joint_commit_generation, joint_nas_seed, joint_sample_generation,
    joint_search_init, joint_search_step, joint_search_step_with, pareto_sweep,
    resume_joint_search, search_joint, search_joint_with, JointCandidateEval, JointConfig,
    JointResult, JointSampledGeneration, JointSearchState, ParetoEntry,
};
pub use mapping_search::{
    network_mapping_search_cached, search_layer_mapping, search_layer_mapping_with,
    MappingSearchConfig, MappingSearchResult,
};
pub use pareto::{ArchiveEntry, ParetoArchive};
pub use pipeline::{with_thread_pipeline, EvalPipeline};
pub use reward::{geomean, ObjectivePolicy, RewardKind};
pub use service::{BatchEvalService, ServiceConfig, ServiceError, ServiceServer, WireService};

/// Convenience re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::accel_search::{
        search_accelerator, search_accelerator_seeded, search_accelerator_with, AccelSearchConfig,
        AccelSearchResult, SearchStrategy,
    };
    pub use crate::engine::CoSearchEngine;
    pub use crate::joint::{search_joint, JointConfig, JointResult};
    pub use crate::mapping_search::{
        network_mapping_search, network_mapping_search_cached, search_layer_mapping,
        MappingSearchConfig,
    };
    pub use naas_accel::baselines;
    pub use naas_accel::{Accelerator, ArchitecturalSizing, Connectivity, ResourceConstraint};
    pub use naas_cost::{CostModel, LayerCost, NetworkCost};
    pub use naas_ir::{models, ConvSpec, Dim, Network};
    pub use naas_mapping::Mapping;
    pub use naas_opt::EncodingScheme;
}
