#ifndef GRIDVINE_QUERY_EXEC_EXECUTOR_H_
#define GRIDVINE_QUERY_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/trace.h"
#include "query/exec/backend.h"
#include "query/exec/plan.h"
#include "query/query.h"
#include "store/triple_store.h"

namespace gridvine {

/// Drives one PhysicalPlan over a QueryBackend. Each join-connected group
/// is an explicit operator state machine — scan, then (bind-)join steps —
/// and the groups run concurrently; when every group has settled, the tail
/// merges (cross-group join), projects and deduplicates. The plan is held
/// read-only: the executor runs exactly the plan it was given.
///
/// Completion discipline: the done callback fires exactly once, only after
/// every group reached a terminal phase, which in turn requires every
/// outstanding backend call to have resolved. There is therefore never a
/// backend callback in flight once `done` has fired — the owner may destroy
/// the executor from (after) the done callback without racing one. A failed
/// group (e.g. a bind-join batch that exhausted its retries) does not abort
/// its siblings; the first failure becomes the result status once all
/// groups settle, so operator state never leaks.
class ConjunctiveExecutor {
 public:
  /// Issuer-side shipping accounting, for the bench and the experiments:
  /// rows pushed toward the data (probes) and rows shipped back.
  struct Metrics {
    uint64_t remote_scans = 0;
    uint64_t bind_joins = 0;
    uint64_t existence_checks = 0;
    uint64_t probe_rows = 0;  ///< binding rows pushed toward the data
    uint64_t scan_rows = 0;   ///< rows shipped back by full-extent scans
    uint64_t bound_rows = 0;  ///< rows shipped back by bind-joins
    uint64_t RowsShipped() const { return probe_rows + scan_rows + bound_rows; }
  };

  struct ExecResult {
    Status status;
    std::vector<BindingSet> rows;
    Metrics metrics;
    /// Observed full-extent cardinality per pattern index (parallel to the
    /// query's patterns); -1 where no full scan of that pattern ran. The
    /// issuer feeds these back into its statistics cache.
    std::vector<double> observed_extents;
  };
  using DoneCallback = std::function<void(ExecResult)>;

  /// `backend` must outlive the executor. The plan must have been produced
  /// from `query` (pattern indexes are resolved against it).
  ConjunctiveExecutor(const ConjunctiveQuery& query, PhysicalPlan plan,
                      QueryBackend* backend);

  ConjunctiveExecutor(const ConjunctiveExecutor&) = delete;
  ConjunctiveExecutor& operator=(const ConjunctiveExecutor&) = delete;

  /// Starts every group. `done` fires exactly once, possibly synchronously.
  void Run(DoneCallback done);

  /// Records per-operator spans ("exec.scan" / "exec.bind_join" /
  /// "exec.exists" / "exec.finalize", with row and probe counts) as children
  /// of `parent`, and hands each operator's span to the backend via
  /// SetCallCtx so transport dispatches nest under it. Call before Run().
  void EnableTracing(Tracer* tracer, TraceCtx parent);

  const Metrics& metrics() const { return metrics_; }

 private:
  enum class GroupPhase { kRunning, kWaiting, kDone, kFailed };

  /// One group's operator state machine.
  struct GroupState {
    size_t step = 0;  ///< next step in the group's chain
    GroupPhase phase = GroupPhase::kRunning;
    Status status;
    bool acc_init = false;
    std::vector<BindingSet> acc;      ///< the running binding set
    std::vector<BindingSet> pending;  ///< last scan's rows, pre-LocalJoin
    /// Bind-join bookkeeping: which acc rows each probe stands for.
    std::vector<std::vector<size_t>> probe_members;
    /// Pattern index of the scan currently in flight (observed-extent
    /// feedback); kNoPattern when none.
    size_t scan_pattern = PlanStep::kNoPattern;
    TraceCtx op_span;  ///< the operator currently waiting on the backend
  };

  const TriplePattern& PatternOf(const PlanStep& step) const;

  /// Advances group `gi` until it blocks on a backend call or terminates.
  void StepGroup(size_t gi);
  void OnScan(size_t gi, QueryBackend::ScanResult r);
  void OnBoundScan(size_t gi, QueryBackend::BoundScanResult r);
  void OnExists(size_t gi, Result<bool> r);
  void GroupDone(size_t gi, Status status);

  /// Runs the tail over the groups' outputs and fires `done_`.
  void Finalize();

  /// Opens an operator span under trace_parent_ and routes it to the
  /// backend; the invalid ctx when tracing is off.
  TraceCtx StartOp(std::string_view name);
  void EndOp(TraceCtx* span, std::string_view key, double value);

  ConjunctiveQuery query_;
  const PhysicalPlan plan_;
  QueryBackend* backend_;
  std::vector<GroupState> groups_;
  size_t unsettled_groups_ = 0;
  Metrics metrics_;
  DoneCallback done_;
  Tracer* tracer_ = nullptr;
  TraceCtx trace_parent_{};
  /// Per-pattern observed full-scan cardinalities; -1 = not observed.
  std::vector<double> observed_extents_;
};

}  // namespace gridvine

#endif  // GRIDVINE_QUERY_EXEC_EXECUTOR_H_
