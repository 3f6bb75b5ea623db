#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/trace.h"
#include "query/planner.h"
#include "query/reformulation_cache.h"

namespace gvbench {

using gridvine::GridVineNetwork;

GridVineNetwork::Options E1Options(uint64_t seed, size_t peers,
                                   uint32_t shards) {
  GridVineNetwork::Options o;
  o.num_peers = peers;
  o.key_depth = 16;
  o.seed = SubSeed(seed, 1);
  o.latency = GridVineNetwork::LatencyKind::kWan;
  o.latency_param = 0.015;
  o.wan_mu = -2.5;
  o.wan_sigma = 1.2;
  o.wan_straggler_prob = 0.09;
  o.wan_straggler_mean = 6.0;
  o.peer.query_timeout = 30.0;
  o.overlay.retry.base_timeout = 30.0;
  o.shards = shards;
  return o;
}

gridvine::BioWorkload::Options E1Corpus(uint64_t seed) {
  gridvine::BioWorkload::Options wl;
  wl.num_schemas = 50;
  wl.num_entities = 500;
  wl.entities_per_schema = 42;
  wl.seed = SubSeed(seed, 2);
  return wl;
}

size_t Corpus::TotalTriples() const {
  size_t n = 0;
  for (const auto& t : triples) n += t.size();
  return n;
}

Corpus CopyCorpus(const gridvine::BioWorkload& wl) {
  Corpus c;
  c.schemas = wl.schemas();
  for (size_t s = 0; s < c.schemas.size(); ++s) {
    c.triples.push_back(wl.TriplesFor(s));
  }
  return c;
}

std::unique_ptr<GridVineNetwork> SetupE1(const GridVineNetwork::Options& opts,
                                         const Corpus& corpus,
                                         HostSpans* spans, SetupTimes* times,
                                         const std::vector<gridvine::SchemaMapping>* mappings) {
  HostSpans::Scope setup(spans, "setup", "harness");
  const CpuTimer total;
  std::unique_ptr<GridVineNetwork> net;
  {
    HostSpans::Scope s(spans, "pgrid.build", "pgrid");
    net = std::make_unique<GridVineNetwork>(opts);
  }
  times->build_s = total.Seconds();
  const CpuTimer load;
  for (size_t s = 0; s < corpus.schemas.size(); ++s) {
    size_t owner = OwnerOf(s, net->size());
    gridvine::Status st;
    {
      HostSpans::Scope sp(spans, "gridvine.insert_schema", "gridvine");
      st = net->InsertSchema(owner, corpus.schemas[s]);
    }
    if (st.ok()) {
      HostSpans::Scope sp(spans, "store.insert_triples", "store");
      st = net->InsertTriples(owner, corpus.triples[s]);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "set-up: load of schema %zu failed: %s\n", s,
                   st.ToString().c_str());
      return nullptr;
    }
  }
  if (mappings != nullptr) {
    std::unordered_map<std::string, size_t> schema_idx;
    for (size_t s = 0; s < corpus.schemas.size(); ++s) {
      schema_idx[corpus.schemas[s].name()] = s;
    }
    for (const auto& m : *mappings) {
      HostSpans::Scope sp(spans, "gridvine.insert_mapping", "gridvine");
      size_t owner = OwnerOf(schema_idx.at(m.source_schema()), net->size());
      gridvine::Status st = net->InsertMapping(owner, m);
      if (!st.ok()) {
        std::fprintf(stderr, "set-up: mapping %s failed: %s\n", m.id().c_str(),
                     st.ToString().c_str());
        return nullptr;
      }
    }
  }
  {
    HostSpans::Scope s(spans, "sim.settle", "sim");
    net->Settle();
  }
  times->load_s = load.Seconds();
  times->total_s = total.Seconds();
  return net;
}

BioIndex IndexCorpus(const gridvine::BioWorkload& wl, const Corpus& corpus) {
  BioIndex idx;
  std::unordered_map<std::string, uint32_t> frag_id;
  idx.schema_attrs.resize(corpus.schemas.size());
  idx.schema_like_attrs.resize(corpus.schemas.size());
  for (size_t s = 0; s < corpus.schemas.size(); ++s) {
    for (const auto& t : corpus.triples[s]) {
      const std::string& pred = t.predicate().value();
      auto [it, fresh] = idx.attr_id.emplace(pred, uint32_t(idx.attrs.size()));
      if (fresh) {
        idx.attrs.push_back(pred);
        idx.attr_concept.push_back(wl.ConceptOf(pred));
        idx.attr_frags.emplace_back();
        idx.schema_attrs[s].push_back(it->second);
        const std::string& c = idx.attr_concept.back();
        if (c != "accession" && c != "length") {
          idx.schema_like_attrs[s].push_back(it->second);
        }
      }
      std::string frag = FirstWord(t.object().value());
      auto [f, ffresh] = frag_id.emplace(frag, uint32_t(idx.frags.size()));
      if (ffresh) idx.frags.push_back(frag);
      idx.attr_frags[it->second].push_back(f->second);
    }
  }
  return idx;
}

std::vector<BioQuery> MakeStream(const BioIndex& idx, size_t n, size_t peers,
                                 double conj_frac, uint64_t seed) {
  SeqRng rng(seed);
  std::vector<BioQuery> out;
  out.reserve(n);
  const size_t schemas = idx.schema_like_attrs.size();
  while (out.size() < n) {
    size_t s = rng.Below(schemas);
    const auto& like = idx.schema_like_attrs[s];
    if (like.empty()) continue;
    BioQuery q;
    q.attr = like[rng.Below(like.size())];
    const auto& frags = idx.attr_frags[q.attr];
    q.frag = frags[rng.Below(frags.size())];
    q.issuer = uint32_t(rng.Below(peers));
    if (conj_frac > 0 && rng.Bernoulli(conj_frac)) {
      const auto& all = idx.schema_attrs[s];
      uint32_t a2 = all[rng.Below(all.size())];
      if (a2 != q.attr) q.attr2 = a2;
    }
    out.push_back(q);
  }
  return out;
}

gridvine::TriplePatternQuery SingleQuery(const BioIndex& idx,
                                         const BioQuery& q) {
  using gridvine::Term;
  return gridvine::TriplePatternQuery(
      "x", gridvine::TriplePattern(Term::Var("x"), Term::Uri(idx.attrs[q.attr]),
                                   Term::Literal("%" + idx.frags[q.frag] + "%")));
}

gridvine::ConjunctiveQuery JoinQuery(const BioIndex& idx, const BioQuery& q) {
  using gridvine::Term;
  return gridvine::ConjunctiveQuery(
      {"x", "v"},
      {gridvine::TriplePattern(Term::Var("x"), Term::Uri(idx.attrs[q.attr]),
                               Term::Literal("%" + idx.frags[q.frag] + "%")),
       gridvine::TriplePattern(Term::Var("x"), Term::Uri(idx.attrs[q.attr2]),
                               Term::Var("v"))});
}

std::vector<std::pair<std::string, double>> SimAgg::Values() const {
  std::vector<double> sorted = latency;
  std::sort(sorted.begin(), sorted.end());
  const double n = double(std::max<size_t>(1, latency.size()));
  auto within = [&](double bound) {
    return double(std::upper_bound(sorted.begin(), sorted.end(), bound) -
                  sorted.begin()) /
           n;
  };
  return {{"sim_p50_s", NearestRank(sorted, 0.50)},
          {"sim_p99_s", NearestRank(sorted, 0.99)},
          {"within_1s", within(1.0)},
          {"within_5s", within(5.0)},
          {"recall", expected > 0 ? found / expected : 1.0},
          {"success_frac", double(ok) / n},
          {"msgs_per_query", double(msgs) / n},
          {"kb_per_query", double(bytes) / 1024.0 / n}};
}

void SimAgg::Emit(RunOutput* out) const {
  static const std::map<std::string, std::string> kUnits = {
      {"sim_p50_s", "s"},       {"sim_p99_s", "s"},
      {"within_1s", "frac"},    {"within_5s", "frac"},
      {"recall", "frac"},       {"success_frac", "frac"},
      {"msgs_per_query", "count"}, {"kb_per_query", "KiB"}};
  for (const auto& [name, v] : Values()) out->Add(name, v, kUnits.at(name));
}

NetTotals Totals(GridVineNetwork& net) {
  gridvine::NetworkStats st =
      net.engine() ? net.engine()->AggregateStats() : net.network()->stats();
  return {st.messages_sent, st.bytes_sent};
}

uint64_t EventsExecuted(GridVineNetwork& net) {
  return net.engine() ? net.engine()->events_executed()
                      : net.sim()->events_executed();
}

double CounterOf(GridVineNetwork& net, const std::string& name) {
  for (const auto& [k, v] : net.CollectMetrics().Flatten()) {
    if (k == name) return v;
  }
  return 0;
}

double RetrieveResponseKb(GridVineNetwork& net) {
  double bytes = 0, sent = 0;
  for (const auto& [k, v] : net.CollectMetrics().Flatten()) {
    if (k.find("pgrid.retrieve_resp") == std::string::npos) continue;
    if (k.size() > 6 && k.compare(k.size() - 6, 6, ".bytes") == 0) bytes += v;
    if (k.size() > 5 && k.compare(k.size() - 5, 5, ".sent") == 0) sent += v;
  }
  return sent > 0 ? bytes / sent / 1024.0 : 0;
}

TraceShares AnalyzeSimTrace(GridVineNetwork& net, size_t max_roots) {
  TraceShares out;
  gridvine::TraceAnalyzer an(net.tracer()->Snapshot());
  // Roots whose span is closed, latest first: their trees are complete,
  // since ring eviction drops the oldest spans first.
  std::vector<const gridvine::Tracer::Span*> roots;
  for (const auto& s : an.spans()) {
    if (s.parent_id == 0 && s.end >= s.start &&
        (s.name == "op.search" || s.name == "op.serve" ||
         s.name == "op.cquery")) {
      roots.push_back(&s);
    }
  }
  if (roots.size() > max_roots) {
    roots.erase(roots.begin(), roots.end() - std::ptrdiff_t(max_roots));
  }
  std::set<uint64_t> wanted;
  for (const auto* r : roots) wanted.insert(r->trace_id);
  double total = 0, queue = 0, network = 0, retry = 0;
  for (uint64_t id : wanted) {
    auto cp = an.CriticalPathFor(id);
    total += cp.total;
    queue += cp.queue;
    network += cp.network;
    retry += cp.retry;
  }
  size_t flights = 0, routes = 0, retries = 0;
  for (const auto& s : an.spans()) {
    if (!wanted.count(s.trace_id)) continue;
    if (s.name == "op.retry") {
      ++retries;
    } else if (s.name == "op.dispatch" || s.name == "op.retrieve" ||
               s.name == "op.update" || s.name == "op.remove") {
      ++routes;
    } else if (s.name.rfind("pgrid.routed", 0) == 0) {
      ++flights;
    }
  }
  out.roots = wanted.size();
  if (total > 0) {
    out.queue = queue / total;
    out.network = network / total;
    out.retry = retry / total;
  }
  out.hops_per_route = routes ? double(flights) / double(routes) : 0;
  out.retries_per_query =
      out.roots ? double(retries) / double(out.roots) : 0;
  return out;
}

Responsibility::Responsibility(GridVineNetwork& net) : net_(net) {
  for (size_t i = 0; i < net.size(); ++i) {
    by_path_.emplace(net.peer(i)->overlay()->path().bits(), i);
  }
}

size_t Responsibility::PeerFor(const std::string& term) const {
  const std::string bits = net_.peer(0)->hasher()(term).bits();
  for (size_t len = bits.size() + 1; len-- > 0;) {
    auto it = by_path_.find(bits.substr(0, len));
    if (it != by_path_.end()) return it->second;
  }
  return 0;
}

double ReplaySelectUs(GridVineNetwork& net,
                      const std::vector<gridvine::TriplePattern>& patterns,
                      HostSpans* spans) {
  Responsibility resp(net);
  std::vector<std::pair<size_t, const gridvine::TriplePattern*>> work;
  for (const auto& p : patterns) {
    auto pos = p.RoutingConstant();
    if (pos) work.emplace_back(resp.PeerFor(p.at(*pos).value()), &p);
  }
  HostSpans::Scope s(spans, "store.replay_select", "store");
  size_t rows = 0;
  const CpuTimer t;
  for (const auto& [peer, pattern] : work) {
    rows += net.peer(peer)->local_db().Select(*pattern).size();
  }
  double us = t.Seconds() * 1e6;
  return work.empty() || rows == 0 ? 0 : us / double(work.size());
}

double ReplayPlanUs(const std::vector<gridvine::ConjunctiveQuery>& queries,
                    HostSpans* spans) {
  HostSpans::Scope s(spans, "query.replay_plan", "query");
  size_t steps = 0;
  const CpuTimer t;
  for (const auto& q : queries) steps += gridvine::PlanPhysical(q).Order().size();
  double us = t.Seconds() * 1e6;
  return queries.empty() || steps == 0 ? 0 : us / double(queries.size());
}

double ReplayExpandUs(const gridvine::MappingGraph& graph,
                      const std::vector<gridvine::TriplePatternQuery>& queries,
                      int max_hops, HostSpans* spans) {
  gridvine::ReformulationCache cache;
  HostSpans::Scope s(spans, "query.replay_expand", "query");
  size_t n = 0;
  const CpuTimer t;
  for (const auto& q : queries) n += cache.Expand(q, graph, max_hops).size() + 1;
  double us = t.Seconds() * 1e6;
  return n ? us / double(queries.size()) : 0;
}

ReplayInputs BioReplayInputs(const BioIndex& idx,
                             const std::vector<BioQuery>& stream,
                             size_t count) {
  ReplayInputs in;
  for (size_t i = 0; i < count && i < stream.size(); ++i) {
    const BioQuery& q = stream[i];
    in.queries.push_back(SingleQuery(idx, q));
    in.patterns.push_back(in.queries.back().pattern());
    if (q.attr2 != BioQuery::kNone) in.joins.push_back(JoinQuery(idx, q));
  }
  return in;
}

void ReportHostTrace(const HostSpans& spans, const Args& args, int run_root,
                     RunOutput* out) {
  ::mkdir(kOutDir, 0755);
  const std::string base = std::string(kOutDir) + "/" + args.workload;
  if (!spans.WriteChrome(base + "_trace.json")) {
    out->notes.push_back("could not write " + base + "_trace.json");
  }
  auto all = spans.SelfSecondsByLayer(-1);
  auto run = spans.SelfSecondsByLayer(run_root);
  double run_total = 0;
  for (const auto& [layer, s] : run) run_total += s;
  std::vector<std::string> lines;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-10s %12s %8s %12s", "layer", "run_self_s",
                "share", "replay_s");
  lines.push_back(buf);
  for (const auto& [layer, s] : all) {
    double in_run = run.count(layer) ? run.at(layer) : 0;
    std::snprintf(buf, sizeof buf, "%-10s %12.4f %7.1f%% %12.4f",
                  layer.c_str(), in_run,
                  run_total > 0 ? 100 * in_run / run_total : 0, s - in_run);
    lines.push_back(buf);
  }
  if (std::FILE* f = std::fopen((base + "_layers.txt").c_str(), "w")) {
    for (const auto& l : lines) std::fprintf(f, "%s\n", l.c_str());
    std::fclose(f);
  }
  out->notes.push_back("host self time by layer (traced pass, " +
                       std::to_string(spans.spans().size()) + " spans):");
  for (const auto& l : lines) out->notes.push_back("  " + l);
}

const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kLayers = {
      {"sim.events_per_query", "count"},
      {"sim.host_us_per_event", "us"},
      {"sim.shard.barrier_wait_frac", "frac"},
      {"sim.shard.events_per_epoch", "count"},
      {"sim.shard.cross_shard_frac", "frac"},
      {"pgrid.retrieve_resp_kb", "KiB"},
      {"pgrid.hops_per_route", "count"},
      {"pgrid.retries_per_query", "count"},
      {"pgrid.build_s", "s"},
      {"pgrid.bytes_per_peer", "B"},
      {"store.load_s", "s"},
      {"store.select_us", "us"},
      {"query.reformulations_per_query", "count"},
      {"query.rows_shipped_per_answer", "count"},
      {"query.expand_us", "us"},
      {"query.plan_us", "us"},
      {"query.cache_hit_rate", "frac"},
      {"query.cache_invalidations_per_write", "count"},
      {"gridvine.search_host_us.p50", "us"},
      {"gridvine.search_host_us.p99", "us"},
      {"gridvine.frontend.shed_frac", "frac"},
      {"gridvine.frontend.max_queue_depth", "count"},
      {"gridvine.batch_items_per_flush", "count"},
      {"gridvine.write_host_us", "us"},
      {"selforg.round_s", "s"},
      {"selforg.bp_messages_per_round", "count"},
      {"selforg.mappings_created", "count"},
      {"selforg.mappings_deprecated", "count"},
      {"cp.queue_share", "frac"},
      {"cp.network_share", "frac"},
      {"cp.retry_share", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return kLayers;
}

void EmitLayers(const std::map<std::string, double>& values, RunOutput* out) {
  for (const auto& [name, unit] : LayerMetrics()) {
    auto it = values.find(name);
    out->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& [n, u] : LayerMetrics()) known |= name == n;
    if (!known) out->Fail("unlisted per-layer metric " + name);
  }
}

void CompareSim(const SimAgg& untraced, const SimAgg& traced,
                RunOutput* out) {
  auto a = untraced.Values();
  auto b = traced.Values();
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      out->Fail("traced pass changed " + a[i].first + ": " +
                JsonNumber(a[i].second) + " vs " + JsonNumber(b[i].second));
    }
  }
}

}  // namespace gvbench
