// reactive_batch.h — lockstep batch forms of the reactive baselines.
//
// ParallelBatchMethodology and DualBatchMethodology mirror
// ParallelMethodology / DualMethodology step for step:
//
//   1. architecture step for all lanes from the PRE-step state, through
//      the architecture's step_lanes(): the parallel architecture runs
//      its single-substep electro-chemical kernel as a flat SoA sweep
//      on fastmath::exp (vectorizable and bit-identical to its scalar
//      step(), which inlines the same kernel), falling back to step()
//      per lane only where substeps or a non-unit fade exponent are
//      needed; the dual architecture calls step() per lane with each
//      lane's switch mode;
//   2. passive inlet + affine thermal update as flat SIMD loops over
//      all lanes, with the StepMatrix hoisted once per dt — the scalar
//      path recomputes it every step, which is the main structural win;
//   3. commit SoC/SoE and fill one StepRecord per active lane.
//
// The dual policy's per-lane hysteresis (venting flag, last mode) lives
// in lane-indexed arrays reset on backfill.
#pragma once

#include <vector>

#include "core/batch_methodology.h"
#include "core/dual_methodology.h"
#include "hees/dual_arch.h"
#include "hees/parallel_arch.h"
#include "thermal/cooling_system.h"

namespace otem::core {

/// Shared lane scratch + the SIMD thermal tier (steps 2-3 above).
class ReactiveBatchBase : public BatchMethodology {
 public:
  ReactiveBatchBase(const SystemSpec& spec, size_t lanes);

  size_t lanes() const override { return n_; }

 protected:
  /// Flat passive-inlet + thermal sweep over ALL lanes (inactive lanes
  /// evolve harmlessly toward their stale ambient; their state is
  /// re-scattered on backfill), then SoC/SoE commit and StepRecord fill
  /// for active lanes from arch_out_.
  void thermal_tier_and_commit(PlantLanes& state, const double* p_e_w,
                               const unsigned char* active, double dt,
                               StepRecord* rec);

  thermal::CoolingSystem cooling_;
  size_t n_;
  double matrix_dt_ = 0.0;  ///< dt the cached matrix_ was built for
  thermal::StepMatrix matrix_;
  std::vector<double> ambient_;  ///< per-lane mission ambient [K]
  std::vector<double> t_inlet_;  ///< scratch: passive inlet per lane
  std::vector<double> q_;        ///< scratch: battery heat per lane
  std::vector<hees::ArchStep> arch_out_;
};

class ParallelBatchMethodology final : public ReactiveBatchBase {
 public:
  ParallelBatchMethodology(const SystemSpec& spec, size_t lanes);

  std::string name() const override { return "parallel"; }
  void reset_lane(size_t lane, double ambient_k) override;
  void step_lanes(PlantLanes& state, const double* p_e_w,
                  const unsigned char* active, double dt,
                  StepRecord* rec) override;

 private:
  hees::ParallelArchitecture arch_;
};

class DualBatchMethodology final : public ReactiveBatchBase {
 public:
  DualBatchMethodology(const SystemSpec& spec, size_t lanes,
                       DualPolicyParams policy = {});

  std::string name() const override { return "dual"; }
  void reset_lane(size_t lane, double ambient_k) override;
  void step_lanes(PlantLanes& state, const double* p_e_w,
                  const unsigned char* active, double dt,
                  StepRecord* rec) override;

 private:
  hees::DualArchitecture arch_;
  DualPolicyParams policy_;
  std::vector<unsigned char> venting_;  ///< per-lane hysteresis flag
  std::vector<hees::DualMode> mode_;    ///< per-lane switch decision
};

}  // namespace otem::core
