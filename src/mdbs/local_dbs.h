// A local (component) database system as seen through its MDBS agent:
// an autonomous DBMS (engine + performance profile) running on a machine
// with a dynamic background load (load builder), observable only through
// query elapsed times and OS-level statistics — exactly the black-box
// interface the paper's global level has to work with (Figure 3).

#ifndef MSCM_MDBS_LOCAL_DBS_H_
#define MSCM_MDBS_LOCAL_DBS_H_

#include <memory>
#include <string>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/table_generator.h"
#include "sim/contention_model.h"
#include "sim/cost_simulator.h"
#include "sim/load_builder.h"
#include "sim/performance_profile.h"
#include "sim/system_monitor.h"

namespace mscm::mdbs {

struct LocalDbsConfig {
  std::string site_name = "site";
  sim::PerformanceProfile profile = sim::PerformanceProfile::Alpha();
  engine::TableGeneratorConfig tables;
  sim::LoadRegimeConfig load;
  sim::MachineSpec machine;
  uint64_t seed = 1;
};

class LocalDbs {
 public:
  explicit LocalDbs(const LocalDbsConfig& config);

  LocalDbs(const LocalDbs&) = delete;
  LocalDbs& operator=(const LocalDbs&) = delete;

  struct SelectOutcome {
    engine::SelectExecution execution;
    double elapsed_seconds = 0.0;
  };
  struct JoinOutcome {
    engine::JoinExecution execution;
    double elapsed_seconds = 0.0;
  };

  // Plans and runs a query under the current contention level. Running a
  // query advances simulated time (the load drifts and the monitor ticks).
  SelectOutcome RunSelect(const engine::SelectQuery& query);
  JoinOutcome RunJoin(const engine::JoinQuery& query);

  // Runs the standard probing query and returns its observed cost — the
  // paper's gauge of the current system contention level (§3.1). Its work
  // is fixed (computed once, at construction); only its cost under the
  // current contention varies.
  double RunProbingQuery();

  // Current OS statistics as the environment monitor reports them.
  sim::SystemStats MonitorSnapshot();

  // Load control (the load builder half of the MDBS agent).
  void ResampleLoad() { load_builder_.Resample(); }
  void AdvanceLoad(double dt_seconds);
  void SetLoadProcesses(double n) { load_builder_.SetProcessCount(n); }
  double current_processes() const {
    return load_builder_.Current().num_processes;
  }

  // Simulates an occasionally-changing factor (paper §2): a hardware
  // reconfiguration such as a memory upgrade/downgrade. Existing cost models
  // derived for the old machine drift until rebuilt.
  void ReconfigureMachine(const sim::MachineSpec& machine);

  // A milder occasionally-changing factor: a persistent multiplicative
  // shift of the cost surface (degraded disk, scaled CPU). Applied to every
  // subsequent query — including the probing query, so the gauge partially
  // follows, but models derived pre-shift misestimate until re-derived.
  void SetEnvironmentShift(const sim::EnvironmentShift& shift) {
    shift_ = shift;
  }
  const sim::EnvironmentShift& environment_shift() const { return shift_; }

  // Plan visibility (used for query classification at the global level; in
  // the real system this is inferred from catalog knowledge of indexes).
  engine::SelectPlan PlanSelect(const engine::SelectQuery& query) const;
  engine::JoinPlan PlanJoin(const engine::JoinQuery& query) const;

  const engine::Database& database() const { return database_; }
  const sim::PerformanceProfile& profile() const { return config_.profile; }
  const std::string& name() const { return config_.site_name; }
  double simulated_time_seconds() const { return simulated_time_; }

 private:
  double CostOf(const engine::WorkCounters& work);
  void PassTime(double elapsed);

  LocalDbsConfig config_;
  Rng rng_;
  engine::Database database_;
  engine::Executor executor_;
  sim::LoadBuilder load_builder_;
  sim::SystemMonitor monitor_;
  // Summed work of the two probing queries (see RunProbingQuery).
  engine::WorkCounters probing_work_;
  sim::EnvironmentShift shift_;
  double simulated_time_ = 0.0;
};

}  // namespace mscm::mdbs

#endif  // MSCM_MDBS_LOCAL_DBS_H_
