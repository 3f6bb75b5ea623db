// Workload `mediate`: the E1 deployment plus a sparse mapping graph over its
// 50 schemas (ground-truth mappings and a few erroneous ones). One
// closed-loop client issues reformulating iterative queries with bounded
// hops and 2-pattern bind-join conjunctive queries; every kEvery queries one
// schema evolves (UpsertSchema, RemoveTriple, InsertTriple) and a
// SelfOrganizer round repairs the mapping graph.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common.h"
#include "selforg/self_organizer.h"
#include "workloads.h"

namespace gvbench {
namespace {

using gridvine::GridVineNetwork;
using gridvine::SchemaMapping;

constexpr int kHops = 1;          // reformulation hop bound
constexpr size_t kEvery = 1000;   // queries between schema evolutions
constexpr size_t kSlice = 100;    // queries per host_qps slice
constexpr size_t kPrefix = 4000;  // queries behind the simulated metrics
constexpr size_t kSetups = 5;
constexpr size_t kStream = 1 << 14;
constexpr size_t kEvolutions = 128;
constexpr size_t kErroneous = 5;
constexpr double kJoinFrac = 0.5;

struct Inputs {
  std::unique_ptr<gridvine::BioWorkload> wl;
  Corpus corpus;
  BioIndex idx;
  std::vector<BioQuery> stream;
  std::vector<SchemaMapping> mappings;
  std::vector<gridvine::BioWorkload::SchemaEvolution> evolutions;
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  in.wl = std::make_unique<gridvine::BioWorkload>(E1Corpus(args.seed));
  in.corpus = CopyCorpus(*in.wl);
  in.idx = IndexCorpus(*in.wl, in.corpus);
  in.stream = MakeStream(in.idx, kStream, 340, kJoinFrac, SubSeed(args.seed, 3));
  // A ring of ground-truth mappings over a seeded schema order, and a few
  // erroneous mappings between random pairs.
  SeqRng rng(SubSeed(args.seed, 4));
  const size_t n = in.corpus.schemas.size();
  std::vector<size_t> order(n);
  for (size_t s = 0; s < n; ++s) order[s] = s;
  for (size_t s = n; s > 1; --s) std::swap(order[s - 1], order[rng.Below(s)]);
  for (size_t s = 0; s < n; ++s) {
    in.mappings.push_back(in.wl->GroundTruthMapping(
        order[s], order[(s + 1) % n], "gt" + std::to_string(s)));
  }
  gridvine::Rng err_rng(SubSeed(args.seed, 5));
  for (size_t k = 0; k < kErroneous; ++k) {
    size_t a = rng.Below(n), b = rng.Below(n);
    if (a == b) b = (a + 1) % n;
    in.mappings.push_back(
        in.wl->ErroneousMapping(a, b, "err" + std::to_string(k), &err_rng));
  }
  // Schema evolutions, drawn now so no generation happens while timing.
  gridvine::Rng ev_rng(SubSeed(args.seed, 6));
  for (size_t e = 0; e < kEvolutions; ++e) {
    in.evolutions.push_back(in.wl->EvolveSchema(rng.Below(n), 0.3, &ev_rng));
  }
  return in;
}

/// The central reference of this workload: current triples, the current
/// URI of every attribute, attribute concepts, and the active mapping
/// edges between attribute URIs.
class MediateRef {
 public:
  explicit MediateRef(const Inputs& in) : uri_(in.idx.attrs) {
    for (const auto& ts : in.corpus.triples) {
      for (const auto& t : ts) ref_.Insert(t);
    }
    for (size_t a = 0; a < in.idx.attrs.size(); ++a) {
      concept_[in.idx.attrs[a]] = in.idx.attr_concept[a];
    }
    std::vector<SchemaMapping> oriented;
    for (const auto& m : in.mappings) {
      oriented.push_back(m);
      if (m.bidirectional()) oriented.push_back(m.Reversed());
    }
    SetMappings(oriented);
  }

  const Reference& ref() const { return ref_; }
  const std::string& Uri(uint32_t attr) const { return uri_[attr]; }

  /// Active mappings, oriented the way queries traverse them.
  void SetMappings(const std::vector<SchemaMapping>& oriented) {
    edges_.clear();
    for (const auto& m : oriented) {
      if (m.deprecated()) continue;
      for (const auto& [a, b] : m.correspondences()) {
        bool correct = !concept_[a].empty() && concept_[a] == concept_[b];
        edges_[a].push_back({b, correct});
      }
    }
    answers_.clear();
  }

  void Apply(const gridvine::BioWorkload::SchemaEvolution& ev) {
    for (const auto& [old_uri, new_uri] : ev.renamed_uris) {
      concept_[new_uri] = concept_[old_uri];
      for (auto& u : uri_) {
        if (u == old_uri) u = new_uri;
      }
    }
    for (const auto& t : ev.removed_triples) ref_.Erase(t);
    for (const auto& t : ev.added_triples) ref_.Insert(t);
    answers_.clear();
  }

  /// Subjects any reformulation within `hops` may legally return (every
  /// path through active mappings), and those the query should return
  /// (paths whose correspondences keep the queried concept).
  struct Answer {
    std::vector<uint32_t> allowed;
    std::vector<uint32_t> expected;
  };
  const Answer& For(const std::string& pred, const std::string& pattern,
                    bool reformulate) {
    const std::string key = pred + '\x1f' + pattern + (reformulate ? "r" : "");
    auto it = answers_.find(key);
    if (it != answers_.end()) return it->second;
    Answer a;
    a.allowed = Union(Reach(pred, reformulate ? kHops : 0, false), pattern);
    a.expected = Union(Reach(pred, reformulate ? kHops : 0, true), pattern);
    return answers_.emplace(key, std::move(a)).first->second;
  }

 private:
  std::set<std::string> Reach(const std::string& start, int hops,
                              bool correct_only) {
    std::set<std::string> seen = {start};
    std::vector<std::string> frontier = {start};
    for (int d = 0; d < hops && !frontier.empty(); ++d) {
      std::vector<std::string> next;
      for (const auto& p : frontier) {
        auto e = edges_.find(p);
        if (e == edges_.end()) continue;
        for (const auto& [q, correct] : e->second) {
          if (correct_only && !correct) continue;
          if (seen.insert(q).second) next.push_back(q);
        }
      }
      frontier = std::move(next);
    }
    return seen;
  }
  std::vector<uint32_t> Union(const std::set<std::string>& preds,
                              const std::string& pattern) const {
    std::vector<uint32_t> out;
    for (const auto& p : preds) {
      auto m = ref_.Match(p, pattern);
      out.insert(out.end(), m.begin(), m.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  Reference ref_;
  std::vector<std::string> uri_;
  std::unordered_map<std::string, std::string> concept_;
  std::unordered_map<std::string, std::vector<std::pair<std::string, bool>>>
      edges_;
  std::unordered_map<std::string, Answer> answers_;
};

std::vector<SchemaMapping> OrientedView(const gridvine::MappingGraph& g) {
  std::vector<SchemaMapping> out;
  for (const auto& s : g.Schemas()) {
    for (auto& m : g.MappingsFrom(s)) out.push_back(std::move(m));
  }
  return out;
}

struct Phase {
  SimAgg agg;
  double host_qps = 0;
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t wrong_rows = 0;
  double found_all = 0;
  double call_s = 0;
  uint64_t call_events = 0;
  double reformulations = 0;
  uint64_t reformulating = 0;
  std::vector<double> call_us;
  std::vector<double> write_sim_s;  // prefix writes, simulated ack latency
  double write_host_s = 0;
  double rss_mb = 0;  // peak resident memory when the prefix completed
  size_t rounds = 0;
  double round_s = 0;
  double bp_messages = 0;
  double created = 0;
  double deprecated = 0;
};

/// Applies one evolution through the network (timed writes), then one
/// self-organization round, then refreshes the reference's mapping edges.
bool Evolve(GridVineNetwork& net, gridvine::SelfOrganizer& org,
            const gridvine::BioWorkload::SchemaEvolution& ev, MediateRef& mref, bool in_prefix, HostSpans* spans, Phase* ph) {
  const size_t owner = OwnerOf(ev.schema_idx, net.size());
  auto write = [&](auto&& op) {
    const double sim0 = net.Now();
    const CpuTimer t;
    gridvine::Status st;
    {
      HostSpans::Scope s(spans, "gridvine.write", "gridvine");
      st = op();
    }
    ph->write_host_s += t.Seconds();
    ++ph->writes;
    if (in_prefix) ph->write_sim_s.push_back(net.Now() - sim0);
    if (!st.ok()) ++ph->failed;
    return st.ok();
  };
  bool ok = write([&] { return net.UpsertSchema(owner, ev.new_schema); });
  for (const auto& t : ev.removed_triples) {
    ok &= write([&] { return net.RemoveTriple(owner, t); });
  }
  for (const auto& t : ev.added_triples) {
    ok &= write([&] { return net.InsertTriple(owner, t); });
  }
  mref.Apply(ev);

  const CpuTimer t;
  gridvine::SelfOrganizer::RoundReport rep;
  {
    HostSpans::Scope s(spans, "selforg.round", "selforg");
    rep = org.RunRound();
  }
  ph->round_s += t.Seconds();
  ++ph->rounds;
  ph->bp_messages += double(rep.bp_messages);
  ph->created += double(rep.mappings_created);
  ph->deprecated +=
      double(rep.mappings_deprecated + rep.mappings_stale_deprecated);
  mref.SetMappings(OrientedView(org.graph_view()));
  return ok;
}

Phase RunPhase(GridVineNetwork& net, const Inputs& in, double seconds,
               HostSpans* spans) {
  Phase ph;
  MediateRef mref(in);
  gridvine::SelfOrganizer::Options oo;
  oo.domain = in.wl->options().domain;
  oo.seed = 5;
  oo.value_sample_limit = 16;
  oo.creations_per_round = 1;
  gridvine::SelfOrganizer org(&net, oo);
  for (size_t s = 0; s < in.corpus.schemas.size(); ++s) {
    org.RegisterSchemaOwner(in.corpus.schemas[s].name(),
                            OwnerOf(s, net.size()));
  }
  std::vector<double> rates;
  double slice_call = 0;
  size_t slice_q = 0;
  size_t next_evolution = 0;
  const auto phase0 = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i >= kPrefix && SecondsSince(phase0) >= seconds) break;
    if (i > 0 && i % kSlice == 0) {
      rates.push_back(double(slice_q) / slice_call);
      ph.call_s += slice_call;
      slice_call = 0;
      slice_q = 0;
    }
    if (i > 0 && i % kEvery == 0) {
      if (next_evolution < in.evolutions.size()) {
        Evolve(net, org, in.evolutions[next_evolution++], mref,
               i < kPrefix, spans, &ph);
      }
    }
    const BioQuery& q = in.stream[i % in.stream.size()];
    const std::string pattern = "%" + in.idx.frags[q.frag] + "%";
    const bool join = q.attr2 != BioQuery::kNone;
    using gridvine::Term;
    gridvine::TriplePattern first(Term::Var("x"), Term::Uri(mref.Uri(q.attr)),
                                  Term::Literal(pattern));
    gridvine::GridVinePeer::QueryOptions opts;
    if (!join) {
      opts.reformulate = true;
      opts.mode = gridvine::ReformulationMode::kIterative;
      opts.max_hops = kHops;
    }

    const NetTotals n0 = Totals(net);
    const uint64_t ev0 = EventsExecuted(net);
    const CpuTimer call;
    gridvine::GridVinePeer::QueryResult res;
    gridvine::GridVinePeer::ConjunctiveResult cres;
    {
      HostSpans::Scope s(spans, "gridvine.search", "gridvine");
      if (join) {
        gridvine::ConjunctiveQuery cq(
            {"x", "v"},
            {first, gridvine::TriplePattern(Term::Var("x"),
                                            Term::Uri(mref.Uri(q.attr2)),
                                            Term::Var("v"))});
        cres = net.SearchForConjunctive(q.issuer, cq, opts);
      } else {
        res = net.SearchFor(q.issuer, gridvine::TriplePatternQuery("x", first),
                            opts);
      }
    }
    const double dt = call.Seconds();
    slice_call += dt;
    ++slice_q;
    ph.call_events += EventsExecuted(net) - ev0;
    if (spans->enabled()) ph.call_us.push_back(dt * 1e6);
    const NetTotals n1 = Totals(net);

    // Check against the reference.
    bool ok;
    double latency;
    size_t found = 0, expected = 0;
    if (join) {
      ok = cres.status.ok();
      latency = cres.latency;
      const auto& a = mref.For(mref.Uri(q.attr), pattern, false);
      std::set<std::pair<uint32_t, std::string>> valid;
      for (const auto& [s, o] : mref.ref().Rows(mref.Uri(q.attr2))) {
        if (SortedContains(a.allowed, s)) valid.emplace(s, o);
      }
      expected = valid.size();
      std::set<std::pair<uint32_t, std::string>> seen;
      for (const auto& row : cres.rows) {
        auto x = row.find("x");
        auto v = row.find("v");
        int64_t id = x == row.end() ? -1 : mref.ref().Find(x->second.value());
        if (id < 0 || v == row.end() ||
            !valid.count({uint32_t(id), v->second.value()})) {
          ++ph.wrong_rows;
          continue;
        }
        seen.emplace(uint32_t(id), v->second.value());
      }
      found = seen.size();
    } else {
      ok = res.status.ok();
      latency = res.latency;
      ph.reformulations += double(res.reformulations);
      ++ph.reformulating;
      const auto& a = mref.For(mref.Uri(q.attr), pattern, true);
      std::vector<uint32_t> ids;
      for (const auto& item : res.items) {
        int64_t id = mref.ref().Find(item.value.value());
        if (id < 0 || !SortedContains(a.allowed, uint32_t(id))) {
          ++ph.wrong_rows;
          continue;
        }
        ids.push_back(uint32_t(id));
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      for (uint32_t id : ids) found += SortedContains(a.expected, id);
      expected = a.expected.size();
    }
    ph.failed += !ok;
    ++ph.queries;
    ph.found_all += double(found);
    if (i + 1 == kPrefix) ph.rss_mb = PeakRssMb();
    if (i < kPrefix) {
      ph.agg.Add(ok, latency, found, expected);
      ph.agg.msgs += n1.msgs - n0.msgs;
      ph.agg.bytes += n1.bytes - n0.bytes;
    }
  }
  ph.call_s += slice_call;
  ph.host_qps = FloorRate(rates);
  return ph;
}

void CheckPhase(const Phase& ph, const char* pass, RunOutput* out) {
  if (ph.wrong_rows > 0) {
    out->Fail(std::string(pass) + ": " + std::to_string(ph.wrong_rows) +
              " answer rows outside the reference");
  }
}

}  // namespace

RunOutput RunMediate(const Args& args) {
  RunOutput out;
  Inputs in = MakeInputs(args);
  auto opts = E1Options(args.seed, 340, 1);
  // Bind-join branches re-route until the query window closes instead of
  // failing the conjunctive query after three attempts under stragglers.
  opts.peer.query_retry.max_attempts = 6;
  HostSpans off(false);

  std::vector<double> setup_s;
  std::unique_ptr<GridVineNetwork> net;
  SetupTimes times;
  for (size_t k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    net.reset();
    net = SetupE1(opts, in.corpus, &off, &times, &in.mappings);
    if (!net) {
      out.Fail("set-up failed");
      return out;
    }
    setup_s.push_back(times.total_s);
  }
  Phase plain = RunPhase(*net, in, args.seconds, &off);
  CheckPhase(plain, "untraced", &out);
  out.attempted = plain.queries + plain.writes;
  out.failed = plain.failed;
  std::sort(plain.write_sim_s.begin(), plain.write_sim_s.end());
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "queries=%llu writes=%llu rounds=%zu prefix=%zu mappings=%zu "
                "write_p99_s=%.4f (%zu prefix writes)",
                (unsigned long long)plain.queries,
                (unsigned long long)plain.writes, plain.rounds, kPrefix,
                in.mappings.size(), NearestRank(plain.write_sim_s, 0.99),
                plain.write_sim_s.size());
  out.notes.push_back(buf);
  if (!args.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("host_qps", plain.host_qps, "1/s");
    out.Add("peak_rss_mb", plain.rss_mb, "MiB");
    plain.agg.Emit(&out);
    return out;
  }

  net.reset();
  HostSpans spans(true);
  int root = spans.Open("run", "harness");
  net = SetupE1(opts, in.corpus, &spans, &times, &in.mappings);
  if (!net) {
    out.Fail("traced set-up failed");
    return out;
  }
  net->tracer()->Enable(1 << 16);
  Phase traced = RunPhase(*net, in, args.seconds, &spans);
  spans.Close(root);
  CheckPhase(traced, "traced", &out);
  CompareSim(plain.agg, traced.agg, &out);

  std::map<std::string, double> L;
  const double q = double(std::max<uint64_t>(1, traced.queries));
  L["sim.events_per_query"] = double(traced.call_events) / q;
  L["sim.host_us_per_event"] =
      traced.call_events ? traced.call_s * 1e6 / double(traced.call_events)
                         : 0;
  L["pgrid.retrieve_resp_kb"] = RetrieveResponseKb(*net);
  const TraceShares ts = AnalyzeSimTrace(*net, 300);
  L["pgrid.hops_per_route"] = ts.hops_per_route;
  L["pgrid.retries_per_query"] = ts.retries_per_query;
  L["cp.queue_share"] = ts.queue;
  L["cp.network_share"] = ts.network;
  L["cp.retry_share"] = ts.retry;
  L["pgrid.build_s"] = times.build_s;
  L["pgrid.bytes_per_peer"] =
      double(net->MemoryFootprint()) / double(net->size());
  L["store.load_s"] = times.load_s;
  L["query.reformulations_per_query"] =
      traced.reformulating ? traced.reformulations / double(traced.reformulating)
                           : 0;
  L["query.rows_shipped_per_answer"] =
      traced.found_all > 0
          ? CounterOf(*net, "gv.result_rows_sent") / traced.found_all
          : 0;
  std::sort(traced.call_us.begin(), traced.call_us.end());
  L["gridvine.search_host_us.p50"] = NearestRank(traced.call_us, 0.50);
  L["gridvine.search_host_us.p99"] = NearestRank(traced.call_us, 0.99);
  L["gridvine.write_host_us"] =
      traced.writes ? traced.write_host_s * 1e6 / double(traced.writes) : 0;
  const double rounds = double(std::max<size_t>(1, traced.rounds));
  L["selforg.round_s"] = traced.round_s / rounds;
  L["selforg.bp_messages_per_round"] = traced.bp_messages / rounds;
  L["selforg.mappings_created"] = traced.created;
  L["selforg.mappings_deprecated"] = traced.deprecated;
  L["trace.overhead_frac"] =
      plain.host_qps > 0 ? 1.0 - traced.host_qps / plain.host_qps : 0;

  // Replays on the final state.
  const ReplayInputs replay = BioReplayInputs(in.idx, in.stream, 4000);
  L["store.select_us"] = ReplaySelectUs(*net, replay.patterns, &spans);
  L["query.plan_us"] = ReplayPlanUs(replay.joins, &spans);
  {
    // The final mapping graph as the network stores it, crawled afresh.
    gridvine::SelfOrganizer::Options oo;
    oo.domain = in.wl->options().domain;
    gridvine::SelfOrganizer crawler(net.get(), oo);
    for (size_t s = 0; s < in.corpus.schemas.size(); ++s) {
      crawler.RegisterSchemaOwner(in.corpus.schemas[s].name(),
                                  OwnerOf(s, net->size()));
    }
    const gridvine::MappingGraph graph = crawler.BuildGraphView();
    L["query.expand_us"] =
        ReplayExpandUs(graph, replay.queries, kHops, &spans);
  }

  ReportHostTrace(spans, args, root, &out);
  EmitLayers(L, &out);
  return out;
}

}  // namespace gvbench
