#include "query/exec/executor.h"

#include <utility>

#include "query/exec/bind.h"
#include "store/binding_codec.h"

namespace gridvine {

ConjunctiveExecutor::ConjunctiveExecutor(const ConjunctiveQuery& query,
                                         PhysicalPlan plan,
                                         QueryBackend* backend)
    : query_(query), plan_(std::move(plan)), backend_(backend) {
  groups_.resize(plan_.groups.size());
  observed_extents_.assign(query_.patterns().size(), -1.0);
}

const TriplePattern& ConjunctiveExecutor::PatternOf(
    const PlanStep& step) const {
  return query_.patterns()[step.pattern];
}

void ConjunctiveExecutor::EnableTracing(Tracer* tracer, TraceCtx parent) {
  tracer_ = tracer;
  trace_parent_ = parent;
}

TraceCtx ConjunctiveExecutor::StartOp(std::string_view name) {
  if (tracer_ == nullptr || !tracer_->enabled()) return TraceCtx{};
  TraceCtx span = tracer_->StartSpan(name, trace_parent_);
  backend_->SetCallCtx(span);
  return span;
}

void ConjunctiveExecutor::EndOp(TraceCtx* span, std::string_view key,
                                double value) {
  if (!span->valid()) return;
  tracer_->Annotate(*span, key, value);
  tracer_->EndSpan(*span);
  *span = TraceCtx{};
}

void ConjunctiveExecutor::Run(DoneCallback done) {
  done_ = std::move(done);
  if (groups_.empty()) {
    Finalize();
    return;
  }
  unsettled_groups_ = groups_.size();
  // `this` may be destroyed from inside the last StepGroup if every group
  // settles synchronously — no member access after the loop.
  const size_t n = groups_.size();
  for (size_t gi = 0; gi < n; ++gi) StepGroup(gi);
}

void ConjunctiveExecutor::StepGroup(size_t gi) {
  while (groups_[gi].phase == GroupPhase::kRunning) {
    GroupState& g = groups_[gi];
    const PlanGroup& pg = plan_.groups[gi];
    if (g.step >= pg.steps.size()) {
      GroupDone(gi, Status::OK());
      return;
    }
    const PlanStep step = pg.steps[g.step];
    switch (step.kind) {
      case OpKind::kRemoteScan: {
        g.step++;
        g.phase = GroupPhase::kWaiting;
        g.scan_pattern = step.pattern;
        metrics_.remote_scans++;
        g.op_span = StartOp("exec.scan");
        backend_->Scan(PatternOf(step),
                       [this, gi](QueryBackend::ScanResult r) {
                         OnScan(gi, std::move(r));
                       });
        return;
      }
      case OpKind::kExistenceCheck: {
        g.step++;
        g.phase = GroupPhase::kWaiting;
        metrics_.existence_checks++;
        g.op_span = StartOp("exec.exists");
        backend_->Exists(PatternOf(step), [this, gi](Result<bool> r) {
          OnExists(gi, std::move(r));
        });
        return;
      }
      case OpKind::kLocalJoin: {
        if (!g.acc_init) {
          g.acc = std::move(g.pending);
          g.acc_init = true;
        } else {
          g.acc = TripleStore::Join(g.acc, g.pending);
        }
        g.pending.clear();
        g.step++;
        if (g.acc.empty()) {
          // Empty intermediate result. Steps that consume the accumulator
          // (bind-joins) have nothing to dispatch, so when only those remain
          // the group finishes early — binding propagation's short-circuit.
          // Remote scans do not depend on the accumulator: collect-then-join
          // fetches every extent regardless, exactly the shipping cost the
          // bind-vs-collect comparison is about, so they still execute.
          bool remaining_need_bindings = true;
          for (size_t si = g.step; si < pg.steps.size(); ++si) {
            if (pg.steps[si].kind == OpKind::kRemoteScan) {
              remaining_need_bindings = false;
              break;
            }
          }
          if (remaining_need_bindings) {
            GroupDone(gi, Status::OK());
            return;
          }
        }
        break;
      }
      case OpKind::kBindJoin: {
        if (g.acc.empty()) {
          // Nothing to probe with; the join stays empty.
          g.step++;
          break;
        }
        const TriplePattern& pat = PatternOf(step);
        std::vector<std::string> shared = SharedVars(pat, g.acc[0]);
        std::vector<BindingSet> probes;
        g.probe_members.clear();
        if (shared.empty()) {
          // No join columns (defensive — planner orders groups so each
          // bind-join connects): one empty probe stands for every row,
          // which merges as a cross product.
          probes.push_back(BindingSet{});
          g.probe_members.emplace_back();
          for (size_t ri = 0; ri < g.acc.size(); ++ri) {
            g.probe_members[0].push_back(ri);
          }
        } else {
          BindingDeduper dd;
          for (size_t ri = 0; ri < g.acc.size(); ++ri) {
            BindingSet probe = RestrictTo(g.acc[ri], shared);
            bool fresh = false;
            size_t pi = dd.Intern(probe, &fresh);
            if (fresh) {
              probes.push_back(std::move(probe));
              g.probe_members.emplace_back();
            }
            g.probe_members[pi].push_back(ri);
          }
        }
        g.step++;
        g.phase = GroupPhase::kWaiting;
        metrics_.bind_joins++;
        metrics_.probe_rows += probes.size();
        g.op_span = StartOp("exec.bind_join");
        if (g.op_span.valid()) {
          tracer_->Annotate(g.op_span, "probes", double(probes.size()));
        }
        backend_->BoundScan(pat, std::move(probes),
                            [this, gi](QueryBackend::BoundScanResult r) {
                              OnBoundScan(gi, std::move(r));
                            });
        return;
      }
      case OpKind::kProject:
      case OpKind::kDedup:
        // Tail-only operators; a plan never places them inside a group.
        g.step++;
        break;
    }
  }
}

void ConjunctiveExecutor::OnScan(size_t gi, QueryBackend::ScanResult r) {
  GroupState& g = groups_[gi];
  if (!r.status.ok()) {
    EndOp(&g.op_span, "error", 1.0);
    GroupDone(gi, std::move(r.status));
    return;
  }
  EndOp(&g.op_span, "rows", double(r.rows.size()));
  metrics_.scan_rows += r.rows.size();
  if (g.scan_pattern != PlanStep::kNoPattern &&
      g.scan_pattern < observed_extents_.size()) {
    observed_extents_[g.scan_pattern] = double(r.rows.size());
  }
  g.scan_pattern = PlanStep::kNoPattern;
  g.pending = std::move(r.rows);
  g.phase = GroupPhase::kRunning;
  StepGroup(gi);
}

void ConjunctiveExecutor::OnBoundScan(size_t gi,
                                      QueryBackend::BoundScanResult r) {
  GroupState& g = groups_[gi];
  if (!r.status.ok()) {
    EndOp(&g.op_span, "error", 1.0);
    GroupDone(gi, std::move(r.status));
    return;
  }
  EndOp(&g.op_span, "rows", double(r.rows.size()));
  metrics_.bound_rows += r.rows.size();
  std::vector<BindingSet> next;
  for (const QueryBackend::BoundRow& br : r.rows) {
    if (br.probe_index >= g.probe_members.size()) continue;
    for (size_t ri : g.probe_members[br.probe_index]) {
      BindingSet merged = g.acc[ri];
      bool consistent = true;
      for (const auto& [var, term] : br.bindings) {
        auto it = merged.find(var);
        if (it == merged.end()) {
          merged.emplace(var, term);
        } else if (!(it->second == term)) {
          consistent = false;
          break;
        }
      }
      if (consistent) next.push_back(std::move(merged));
    }
  }
  g.acc = std::move(next);
  g.probe_members.clear();
  if (g.acc.empty()) {
    GroupDone(gi, Status::OK());
    return;
  }
  g.phase = GroupPhase::kRunning;
  StepGroup(gi);
}

void ConjunctiveExecutor::OnExists(size_t gi, Result<bool> r) {
  GroupState& g = groups_[gi];
  if (!r.ok()) {
    EndOp(&g.op_span, "error", 1.0);
    GroupDone(gi, r.status());
    return;
  }
  EndOp(&g.op_span, "exists", r.value() ? 1.0 : 0.0);
  g.acc_init = true;
  g.acc.clear();
  // True yields the join identity (one empty row); false yields the empty
  // set, which annihilates the cross-group join.
  if (r.value()) g.acc.push_back(BindingSet{});
  g.phase = GroupPhase::kRunning;
  StepGroup(gi);
}

void ConjunctiveExecutor::GroupDone(size_t gi, Status status) {
  GroupState& g = groups_[gi];
  g.phase = status.ok() ? GroupPhase::kDone : GroupPhase::kFailed;
  g.status = std::move(status);
  if (--unsettled_groups_ == 0) Finalize();
}

void ConjunctiveExecutor::Finalize() {
  Status status = Status::OK();
  for (const GroupState& g : groups_) {
    if (g.phase == GroupPhase::kFailed) {
      status = g.status;
      break;
    }
  }

  TraceCtx fin{};
  if (tracer_ != nullptr && tracer_->enabled()) {
    fin = tracer_->StartSpan("exec.finalize", trace_parent_);
  }

  std::vector<BindingSet> rows;
  if (status.ok() && !groups_.empty()) {
    rows = std::move(groups_[0].acc);
    size_t next_group = 1;
    for (const PlanStep& s : plan_.tail) {
      switch (s.kind) {
        case OpKind::kLocalJoin:
          if (next_group < groups_.size()) {
            rows = TripleStore::Join(rows, groups_[next_group].acc);
            next_group++;
          }
          break;
        case OpKind::kProject: {
          std::vector<BindingSet> projected;
          projected.reserve(rows.size());
          for (const BindingSet& row : rows) {
            projected.push_back(RestrictTo(row, query_.distinguished_vars()));
          }
          rows = std::move(projected);
          break;
        }
        case OpKind::kDedup: {
          BindingDeduper dd;
          std::vector<BindingSet> unique;
          const size_t in = rows.size();
          for (BindingSet& row : rows) {
            if (dd.Insert(row)) unique.push_back(std::move(row));
          }
          rows = std::move(unique);
          if (fin.valid()) {
            tracer_->Annotate(fin, "dedup_in", double(in));
            tracer_->Annotate(fin, "dedup_out", double(rows.size()));
          }
          break;
        }
        default:
          break;
      }
    }
  }

  ExecResult res;
  res.status = std::move(status);
  if (res.status.ok()) res.rows = std::move(rows);
  res.metrics = metrics_;
  res.observed_extents = observed_extents_;
  if (fin.valid()) {
    tracer_->Annotate(fin, "rows", double(res.rows.size()));
    tracer_->EndSpan(fin);
  }
  // Move the callback out first: it may destroy this executor, so no member
  // access after the call.
  DoneCallback cb = std::move(done_);
  done_ = nullptr;
  cb(std::move(res));
}

}  // namespace gridvine
