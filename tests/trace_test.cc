// Tracer unit tests plus end-to-end causal propagation through the full
// stack: one traced query must yield a single consistent span tree covering
// the messages the network attributes to that query's traffic.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "gridvine/gridvine_network.h"
#include "sim/fault_plan.h"

namespace gridvine {
namespace {

TEST(TracerTest, DisabledIsInert) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  TraceCtx root = t.StartTrace("op");
  EXPECT_FALSE(root.valid());
  TraceCtx child = t.StartSpan("child", root);
  EXPECT_FALSE(child.valid());
  t.EndSpan(child);
  t.Annotate(root, "k", 1.0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Snapshot().size(), 0u);
}

TEST(TracerTest, ParentChildStructure) {
  Tracer t;
  t.Enable();
  TraceCtx root = t.StartTrace("op.root");
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.trace_id, root.span_id);  // a root names its trace
  TraceCtx child = t.StartSpan("hop", root);
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  t.EndSpan(child);
  t.EndSpan(root);

  auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "op.root");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, root.span_id);
  EXPECT_GE(spans[0].end, spans[0].start);
}

TEST(TracerTest, InvalidParentStartsNewTrace) {
  Tracer t;
  t.Enable();
  TraceCtx s = t.StartSpan("orphanless", TraceCtx{});
  ASSERT_TRUE(s.valid());
  EXPECT_EQ(s.trace_id, s.span_id);
  t.EndSpan(s);
  TraceAnalyzer ta(t.Snapshot());
  EXPECT_EQ(ta.CheckConsistency(), "");
}

TEST(TracerTest, ClockStampsSimulatedTime) {
  Tracer t;
  double now = 1.5;
  t.SetClock([&now] { return now; });
  t.Enable();
  TraceCtx s = t.StartTrace("op");
  now = 2.25;
  t.EndSpan(s);
  auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].start, 1.5);
  EXPECT_DOUBLE_EQ(spans[0].end, 2.25);
}

TEST(TracerTest, EndSpanIsIdempotent) {
  Tracer t;
  double now = 1.0;
  t.SetClock([&now] { return now; });
  t.Enable();
  TraceCtx s = t.StartTrace("op");
  now = 2.0;
  t.EndSpan(s);
  now = 9.0;
  t.EndSpan(s);  // second end must not move the timestamp
  EXPECT_DOUBLE_EQ(t.Snapshot()[0].end, 2.0);
}

TEST(TracerTest, RingEvictsOldestAndCounts) {
  Tracer t;
  t.Enable(/*capacity=*/4);
  std::vector<TraceCtx> spans;
  for (int i = 0; i < 10; ++i) {
    TraceCtx s = t.StartTrace("op");
    t.EndSpan(s);
    spans.push_back(s);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.evicted(), 6u);
  auto snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first, and only the newest four survive.
  EXPECT_EQ(snap.front().span_id, spans[6].span_id);
  EXPECT_EQ(snap.back().span_id, spans[9].span_id);
}

TEST(TracerTest, InstantIsZeroDuration) {
  Tracer t;
  double now = 3.0;
  t.SetClock([&now] { return now; });
  t.Enable();
  TraceCtx root = t.StartTrace("op");
  TraceCtx mark = t.Instant("op.retry", root);
  ASSERT_TRUE(mark.valid());
  t.EndSpan(root);
  TraceAnalyzer ta(t.Snapshot());
  const Tracer::Span* s = ta.Find(mark.span_id);
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->start, s->end);
  EXPECT_EQ(ta.OpenCount(), 0u);
}

TEST(TracerTest, AnnotationsRecorded) {
  Tracer t;
  t.Enable();
  TraceCtx s = t.StartTrace("op");
  t.Annotate(s, "rows", 7.0);
  t.Annotate(s, "schema", "EMBL");
  t.EndSpan(s);
  auto spans = t.Snapshot();
  ASSERT_EQ(spans[0].annotations.size(), 2u);
  EXPECT_EQ(spans[0].annotations[0].key, "rows");
  EXPECT_TRUE(spans[0].annotations[0].is_number);
  EXPECT_DOUBLE_EQ(spans[0].annotations[0].number, 7.0);
  EXPECT_EQ(spans[0].annotations[1].text, "EMBL");
}

TEST(TracerTest, ChromeJsonShape) {
  Tracer t;
  t.Enable();
  TraceCtx s = t.StartTrace("op.search");
  t.Annotate(s, "rows", 2.0);
  t.EndSpan(s);
  std::string json = t.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("op.search"), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
}

TEST(TracerTest, EndSpanAtUsesExplicitTime) {
  Tracer t;
  double now = 1.0;
  t.SetClock([&now] { return now; });
  t.Enable();
  TraceCtx s = t.StartTrace("op");
  t.EndSpanAt(s, 4.5);  // the ending shard's clock, not ours
  auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].start, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 4.5);
}

TEST(TracerTest, IntervalRecordsRetroactiveSpan) {
  Tracer t;
  double now = 5.0;
  t.SetClock([&now] { return now; });
  t.Enable();
  TraceCtx root = t.StartTrace("op.dispatch");
  TraceCtx back = t.Interval("op.backoff", root, 5.5, 7.25);
  ASSERT_TRUE(back.valid());
  t.EndSpan(root);
  TraceAnalyzer ta(t.Snapshot());
  const Tracer::Span* s = ta.Find(back.span_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->parent_id, root.span_id);
  EXPECT_DOUBLE_EQ(s->start, 5.5);
  EXPECT_DOUBLE_EQ(s->end, 7.25);
  EXPECT_EQ(ta.OpenCount(), 0u);
  EXPECT_EQ(ta.CheckConsistency(), "");
}

TEST(TracerTest, IdBasePutsShardIndexInHighBits) {
  Tracer t;
  t.SetIdBase(uint64_t(3) << Tracer::kShardIdShift);
  t.Enable();
  TraceCtx s = t.StartTrace("op");
  EXPECT_EQ(s.span_id >> Tracer::kShardIdShift, 3u);
  t.EndSpan(s);
  // Without an order source the order key falls back to the span id.
  EXPECT_EQ(t.Snapshot()[0].order, s.span_id);
}

TEST(TracerTest, OrderSourceStampsContentDerivedKeys) {
  Tracer t;
  uint64_t order = 100;
  t.SetOrderSource([&order] { return ++order; });
  t.Enable();
  TraceCtx a = t.StartTrace("op");
  TraceCtx b = t.StartSpan("hop", a);
  t.EndSpan(b);
  t.EndSpan(a);
  auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].order, 101u);
  EXPECT_EQ(spans[1].order, 102u);
}

TEST(TraceViewTest, MergesShardRingsInCausalOrder) {
  Tracer shard0, shard1;
  double now = 0.0;
  uint64_t order = 0;
  for (Tracer* t : {&shard0, &shard1}) {
    t->SetClock([&now] { return now; });
    t->SetOrderSource([&order] { return ++order; });
  }
  shard1.SetIdBase(uint64_t(1) << Tracer::kShardIdShift);
  TraceView view({&shard0, &shard1});
  view.Enable();
  EXPECT_TRUE(view.enabled());
  EXPECT_EQ(view.parts(), 2u);

  now = 1.0;
  TraceCtx root = view.StartTrace("op.search");  // lands on shard 0
  now = 2.0;
  TraceCtx hop = shard1.StartSpan("QUERY", root);  // cross-shard child
  now = 3.0;
  shard1.EndSpan(hop);
  view.EndSpan(root);  // routed to shard 0 by the id bits
  EXPECT_EQ(view.size(), 2u);

  auto spans = view.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "op.search");  // parent precedes child
  EXPECT_EQ(spans[1].name, "QUERY");
  EXPECT_EQ(spans[1].parent_id, root.span_id);
  EXPECT_DOUBLE_EQ(spans[0].end, 3.0);
  TraceAnalyzer ta(std::move(spans));
  EXPECT_EQ(ta.CheckConsistency(), "");

  std::string json = view.ToChromeJson();
  EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
}

TEST(TraceAnalyzerTest, EvictionDowngradesOrphansToWarnings) {
  Tracer t;
  t.Enable(/*capacity=*/2);
  TraceCtx root = t.StartTrace("op");
  TraceCtx a = t.StartSpan("hop", root);
  TraceCtx b = t.StartSpan("hop", root);  // evicts the root span
  t.EndSpan(a);
  t.EndSpan(b);
  ASSERT_EQ(t.evicted(), 1u);
  TraceAnalyzer ta(t.Snapshot());
  // Strict mode: a missing parent is corruption.
  EXPECT_NE(ta.CheckConsistency(), "");
  // Eviction-aware mode: the same orphans are expected casualties.
  EXPECT_EQ(ta.CheckConsistency(t.evicted()), "");
  EXPECT_EQ(ta.orphan_warnings(), 2u);
}

TEST(TraceAnalyzerTest, CriticalPathAttributesInnermostSpans) {
  // Synthetic tree over [0, 10]: queue [0,2], flight [2,5], service [5,6],
  // backoff [6,7], executor [7,9]; [9,10] only the root is active.
  std::vector<Tracer::Span> spans(6);
  spans[0] = {1, 1, 0, 1, "op.search", 0, 10, {}};
  spans[1] = {1, 2, 1, 2, "op.queue", 0, 2, {}};
  spans[2] = {1, 3, 1, 3, "QUERY", 2, 5, {}};
  spans[3] = {1, 4, 1, 4, "op.service", 5, 6, {}};
  spans[4] = {1, 5, 1, 5, "op.backoff", 6, 7, {}};
  spans[5] = {1, 6, 1, 6, "exec.scan", 7, 9, {}};
  TraceAnalyzer ta(std::move(spans));
  auto cp = ta.CriticalPathFor(1);
  EXPECT_DOUBLE_EQ(cp.total, 10.0);
  EXPECT_DOUBLE_EQ(cp.queue, 2.0);
  EXPECT_DOUBLE_EQ(cp.network, 3.0);
  EXPECT_DOUBLE_EQ(cp.service, 1.0);
  EXPECT_DOUBLE_EQ(cp.retry, 1.0);
  // exec.scan's 2s plus the root-only gap [9,10] (root is op.* = compute).
  EXPECT_DOUBLE_EQ(cp.compute, 3.0);
  EXPECT_DOUBLE_EQ(cp.queue + cp.service + cp.network + cp.retry + cp.compute,
                   cp.total);
}

TEST(TraceAnalyzerTest, CategoryOfBucketsSpanNames) {
  using Cat = TraceAnalyzer::Category;
  EXPECT_EQ(TraceAnalyzer::CategoryOf("op.queue"), Cat::kQueue);
  EXPECT_EQ(TraceAnalyzer::CategoryOf("op.service"), Cat::kService);
  EXPECT_EQ(TraceAnalyzer::CategoryOf("op.backoff"), Cat::kRetry);
  EXPECT_EQ(TraceAnalyzer::CategoryOf("op.search"), Cat::kCompute);
  EXPECT_EQ(TraceAnalyzer::CategoryOf("exec.bind_join"), Cat::kCompute);
  EXPECT_EQ(TraceAnalyzer::CategoryOf("QUERY"), Cat::kNetwork);
  EXPECT_EQ(TraceAnalyzer::CategoryOf("ANSWER"), Cat::kNetwork);
}

TEST(TraceAnalyzerTest, DetectsOrphanParent) {
  std::vector<Tracer::Span> spans(1);
  spans[0].trace_id = 5;
  spans[0].span_id = 6;
  spans[0].parent_id = 5;  // parent never recorded
  spans[0].name = "hop";
  spans[0].end = 1.0;
  TraceAnalyzer ta(std::move(spans));
  EXPECT_NE(ta.CheckConsistency(), "");
}

TEST(TraceAnalyzerTest, DetectsCrossTraceParent) {
  std::vector<Tracer::Span> spans(2);
  spans[0] = {1, 1, 0, 1, "root", 0, 1, {}};
  spans[1] = {9, 2, 1, 2, "hop", 0, 1, {}};  // parent in trace 1, claims trace 9
  TraceAnalyzer ta(std::move(spans));
  EXPECT_NE(ta.CheckConsistency(), "");
}

// --- End-to-end propagation --------------------------------------------------

GridVineNetwork::Options SmallNet(uint64_t seed) {
  GridVineNetwork::Options o;
  o.num_peers = 16;
  o.key_depth = 14;
  o.seed = seed;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.01;
  o.peer.query_timeout = 3.0;
  return o;
}

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

TEST(TracePropagationTest, QueryYieldsOneConsistentTree) {
  GridVineNetwork net(SmallNet(21));
  ASSERT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
  ASSERT_TRUE(net.InsertSchema(1, Schema("B", "d", {"organism"})).ok());
  ASSERT_TRUE(
      net.InsertTriple(0, T("a1", "A#organism", "Aspergillus niger")).ok());
  ASSERT_TRUE(
      net.InsertTriple(1, T("b1", "B#organism", "Aspergillus niger")).ok());
  SchemaMapping m("ab", "A", "B");
  ASSERT_TRUE(m.AddCorrespondence("A#organism", "B#organism").ok());
  ASSERT_TRUE(net.InsertMapping(0, m).ok());

  net.tracer()->Enable();
  TriplePatternQuery q(
      "x", TriplePattern(Term::Var("x"), Term::Uri("A#organism"),
                         Term::Literal("Aspergillus niger")));
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  auto res = net.SearchFor(5, q, opts);
  ASSERT_TRUE(res.status.ok());
  ASSERT_NE(res.trace_id, 0u);

  TraceAnalyzer ta(net.tracer()->Snapshot());
  EXPECT_EQ(ta.CheckConsistency(), "");
  EXPECT_EQ(ta.OpenCount(), 0u);
  // The query root, one dispatch branch per reformulation target, and at
  // least one responder marker — all in the query's own trace.
  EXPECT_EQ(ta.CountNamed("op.search", res.trace_id), 1u);
  EXPECT_GE(ta.CountNamed("op.dispatch", res.trace_id), 2u);
  EXPECT_GE(ta.CountNamed("op.answer", res.trace_id), 2u);
}

TEST(TracePropagationTest, UntracedRunRecordsNothing) {
  GridVineNetwork net(SmallNet(22));
  ASSERT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
  ASSERT_TRUE(net.InsertTriple(0, T("a1", "A#organism", "x")).ok());
  TriplePatternQuery q("x", TriplePattern(Term::Var("x"),
                                          Term::Uri("A#organism"),
                                          Term::Literal("x")));
  auto res = net.SearchFor(3, q);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.trace_id, 0u);
  EXPECT_EQ(net.tracer()->size(), 0u);
}

TEST(TracePropagationTest, TracingDoesNotPerturbResults) {
  auto run = [](bool traced) {
    GridVineNetwork net(SmallNet(23));
    EXPECT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
    EXPECT_TRUE(net.InsertTriple(0, T("a1", "A#organism", "v")).ok());
    if (traced) net.tracer()->Enable();
    TriplePatternQuery q("x", TriplePattern(Term::Var("x"),
                                            Term::Uri("A#organism"),
                                            Term::Literal("v")));
    auto res = net.SearchFor(3, q);
    NetworkStats stats = net.network()->stats();
    return std::make_pair(res.items.size(), stats);
  };
  auto [items_on, stats_on] = run(true);
  auto [items_off, stats_off] = run(false);
  EXPECT_EQ(items_on, items_off);
  EXPECT_TRUE(stats_on == stats_off);
}

// The acceptance bar: during a traced conjunctive query every message the
// network sends belongs to the query's causal tree — flight spans cover
// >= 95% of the per-type message deltas, and the executor's row counts
// reconcile with the result.
TEST(TracePropagationTest, ConjunctiveQueryCoversItsMessages) {
  GridVineNetwork net(SmallNet(24));
  ASSERT_TRUE(net.InsertSchema(0, Schema("A", "d", {"type", "size"})).ok());
  std::vector<Triple> triples;
  for (int e = 0; e < 8; ++e) {
    std::string subj = "x:e" + std::to_string(e);
    triples.push_back(T(subj, "x:type", e % 2 ? "gadget" : "widget"));
    triples.push_back(T(subj, "x:size", std::to_string(e % 3)));
  }
  ASSERT_TRUE(net.InsertTriples(0, triples).ok());

  NetworkStats before = net.network()->stats();
  net.tracer()->Enable();
  ConjunctiveQuery q(
      {"x", "l"},
      {TriplePattern(Term::Var("x"), Term::Uri("x:type"),
                     Term::Literal("gadget")),
       TriplePattern(Term::Var("x"), Term::Uri("x:size"), Term::Var("l"))});
  auto res = net.SearchForConjunctive(2, q);
  ASSERT_TRUE(res.status.ok());
  ASSERT_NE(res.trace_id, 0u);
  EXPECT_FALSE(res.rows.empty());
  NetworkStats after = net.network()->stats();

  TraceAnalyzer ta(net.tracer()->Snapshot());
  EXPECT_EQ(ta.CheckConsistency(), "");
  EXPECT_EQ(ta.OpenCount(), 0u);
  EXPECT_EQ(ta.CountNamed("op.cquery", res.trace_id), 1u);
  EXPECT_GE(ta.CountNamed("exec.scan", res.trace_id) +
                ta.CountNamed("exec.bind_join", res.trace_id),
            2u);
  EXPECT_EQ(ta.CountNamed("exec.finalize", res.trace_id), 1u);

  // Per-type reconciliation: everything sent during the query window was a
  // query-type message, and each send has a flight span named after its type.
  uint64_t sent_delta = after.messages_sent - before.messages_sent;
  ASSERT_GT(sent_delta, 0u);
  uint64_t covered = 0;
  for (uint32_t id = 0; id < after.messages_by_type.size(); ++id) {
    uint64_t prev =
        id < before.messages_by_type.size() ? before.messages_by_type[id] : 0;
    uint64_t d = after.messages_by_type[id] - prev;
    if (d == 0) continue;
    covered += ta.CountNamed(MsgType::NameOf(id), res.trace_id);
  }
  EXPECT_GE(double(covered), 0.95 * double(sent_delta))
      << "flight spans " << covered << " of " << sent_delta << " messages";
  EXPECT_LE(covered, sent_delta);
}


// A bind-join's retry wait is retry time, not compute: the bound-scan
// branch records the same "op.backoff" interval a dispatch branch does.
TEST(TracePropagationTest, BoundScanRetryRecordsBackoff) {
  struct Run {
    GridVinePeer::ConjunctiveResult res;
    std::vector<Tracer::Span> spans;
  };
  // Same seed both times, so the run is identical up to the loss window.
  auto run = [](std::unique_ptr<FaultPlan> plan) {
    GridVineNetwork::Options o = SmallNet(25);
    o.peer.query_timeout = 20.0;  // room for a retried branch
    GridVineNetwork net(o);
    EXPECT_TRUE(net.InsertSchema(0, Schema("A", "d", {"type", "size"})).ok());
    std::vector<Triple> triples;
    for (int e = 0; e < 8; ++e) {
      std::string subj = "x:e" + std::to_string(e);
      triples.push_back(T(subj, "x:type", e % 2 ? "gadget" : "widget"));
      triples.push_back(T(subj, "x:size", std::to_string(e % 3)));
    }
    EXPECT_TRUE(net.InsertTriples(0, triples).ok());
    if (plan != nullptr) net.network()->SetFaultPlan(std::move(plan));
    net.tracer()->Enable();
    ConjunctiveQuery q(
        {"x", "l"},
        {TriplePattern(Term::Var("x"), Term::Uri("x:type"),
                       Term::Literal("gadget")),
         TriplePattern(Term::Var("x"), Term::Uri("x:size"), Term::Var("l"))});
    Run r;
    r.res = net.SearchForConjunctive(2, q);
    r.spans = net.tracer()->Snapshot();
    return r;
  };
  auto first_bound_scan = [](const std::vector<Tracer::Span>& spans) {
    const Tracer::Span* found = nullptr;
    for (const Tracer::Span& s : spans) {
      if (s.name == "op.bound_scan" &&
          (found == nullptr || s.start < found->start)) {
        found = &s;
      }
    }
    return found;
  };

  Run clean = run(nullptr);
  ASSERT_TRUE(clean.res.status.ok());
  const Tracer::Span* probe = first_bound_scan(clean.spans);
  ASSERT_NE(probe, nullptr) << "the query must bind-join";
  EXPECT_EQ(TraceAnalyzer(clean.spans).CountNamed("op.backoff"), 0u);

  // Drop every send at the instant the first bound-scan request leaves.
  auto plan = std::make_unique<FaultPlan>();
  FaultPlan::LossBurst burst;
  burst.start = probe->start;
  burst.end = probe->start + 0.001;
  burst.probability = 1.0;
  plan->AddLossBurst(burst);
  Run lossy = run(std::move(plan));
  ASSERT_TRUE(lossy.res.status.ok()) << lossy.res.status;
  EXPECT_EQ(lossy.res.rows.size(), clean.res.rows.size());

  const Tracer::Span* scan = first_bound_scan(lossy.spans);
  ASSERT_NE(scan, nullptr);
  size_t backoffs = 0;
  for (const Tracer::Span& s : lossy.spans) {
    if (s.name == "op.backoff" && s.parent_id == scan->span_id) ++backoffs;
  }
  EXPECT_EQ(backoffs, 1u);
  TraceAnalyzer ta(lossy.spans);
  EXPECT_EQ(ta.CheckConsistency(), "");
  EXPECT_GT(ta.CriticalPathFor(lossy.res.trace_id).retry, 0.0);
}

}  // namespace
}  // namespace gridvine
