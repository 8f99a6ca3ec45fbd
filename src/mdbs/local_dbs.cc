#include "mdbs/local_dbs.h"

#include <algorithm>

namespace mscm::mdbs {
namespace {

engine::Database MakeDatabase(const engine::TableGeneratorConfig& tables,
                              Rng& rng) {
  engine::Database db = engine::GenerateDatabase(tables, rng);
  engine::AddProbingTable(db, rng);
  return db;
}

// The standard probing workload: a fixed range scan plus a fixed selective
// non-clustered index range over the small probing table. Cheap (a fraction
// of a second idle) but large enough that its cost tracks the contention
// level (§3.3 notes extremely-small-cost queries make poor probes), and
// touching every resource class — CPU, sequential I/O, random I/O through
// the buffer pool — so all contention dimensions register in the gauge.
engine::SelectQuery MakeProbingScan() {
  engine::SelectQuery q;
  q.table = "P0";
  q.projection = {0, 2};
  q.predicate.Add(engine::Condition{/*column=*/0, engine::CompareOp::kBetween,
                                    /*lo=*/1500, /*hi=*/8499});
  return q;
}

engine::SelectQuery MakeProbingIndexRange() {
  engine::SelectQuery q;
  q.table = "P0";
  q.projection = {1};
  // ~1% of the 0..999 domain of the indexed column p2: a couple dozen
  // random-page fetches through the non-clustered index.
  q.predicate.Add(engine::Condition{/*column=*/1, engine::CompareOp::kBetween,
                                    /*lo=*/480, /*hi=*/489});
  return q;
}

}  // namespace

LocalDbs::LocalDbs(const LocalDbsConfig& config)
    : config_(config),
      rng_(config.seed),
      database_(MakeDatabase(config.tables, rng_)),
      executor_(&database_),
      load_builder_(config.load, rng_.NextUint64()),
      monitor_(config.machine, rng_.NextUint64()) {
  // The probing queries read only database_ and the planner rules, neither
  // of which changes after construction, and execution draws no random
  // numbers: their work is the same on every run, so it is computed once.
  const engine::SelectQuery scan = MakeProbingScan();
  const engine::SelectQuery range = MakeProbingIndexRange();
  probing_work_ = executor_.ExecuteSelect(scan, PlanSelect(scan)).work;
  probing_work_ += executor_.ExecuteSelect(range, PlanSelect(range)).work;
}

double LocalDbs::CostOf(const engine::WorkCounters& work) {
  sim::SlowdownFactors slowdown = sim::ComputeSlowdown(
      load_builder_.Current(), config_.profile, config_.machine);
  if (!shift_.IsIdentity()) slowdown = sim::ApplyShift(slowdown, shift_);
  return sim::SimulateElapsedSeconds(work, slowdown, config_.profile, rng_);
}

void LocalDbs::PassTime(double elapsed) {
  simulated_time_ += elapsed;
  // Load drifts a little while the query runs; cap the drift step so a
  // multi-minute join does not walk the level across the whole range.
  const double dt = std::min(elapsed, 20.0);
  load_builder_.Advance(dt);
  monitor_.Tick(load_builder_.Current(), elapsed);
}

LocalDbs::SelectOutcome LocalDbs::RunSelect(const engine::SelectQuery& query) {
  SelectOutcome out;
  out.execution = executor_.ExecuteSelect(query, PlanSelect(query));
  out.elapsed_seconds = CostOf(out.execution.work);
  PassTime(out.elapsed_seconds);
  return out;
}

LocalDbs::JoinOutcome LocalDbs::RunJoin(const engine::JoinQuery& query) {
  JoinOutcome out;
  out.execution = executor_.ExecuteJoin(query, PlanJoin(query));
  out.elapsed_seconds = CostOf(out.execution.work);
  PassTime(out.elapsed_seconds);
  return out;
}

double LocalDbs::RunProbingQuery() {
  const double elapsed = CostOf(probing_work_);
  PassTime(elapsed);
  return elapsed;
}

sim::SystemStats LocalDbs::MonitorSnapshot() {
  return monitor_.Snapshot(load_builder_.Current());
}

void LocalDbs::ReconfigureMachine(const sim::MachineSpec& machine) {
  config_.machine = machine;
  // The monitor keeps its own machine description for totals/percentages;
  // rebuild it (load averages restart, as after a reboot).
  monitor_ = sim::SystemMonitor(machine, rng_.NextUint64());
}

void LocalDbs::AdvanceLoad(double dt_seconds) {
  simulated_time_ += dt_seconds;
  load_builder_.Advance(dt_seconds);
  monitor_.Tick(load_builder_.Current(), dt_seconds);
}

engine::SelectPlan LocalDbs::PlanSelect(const engine::SelectQuery& query) const {
  return engine::ChooseSelectPlan(database_, query, config_.profile.planner);
}

engine::JoinPlan LocalDbs::PlanJoin(const engine::JoinQuery& query) const {
  return engine::ChooseJoinPlan(database_, query, config_.profile.planner);
}

}  // namespace mscm::mdbs
