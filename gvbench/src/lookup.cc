// Workloads `lookup` and `scale`: the E1 deployment (340 peers) and its
// 100k-peer sharded counterpart, driven by one closed-loop client issuing
// single-schema triple-pattern queries through GridVineNetwork::SearchFor.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common.h"
#include "workloads.h"

namespace gvbench {
namespace {

using gridvine::GridVineNetwork;

struct Params {
  size_t peers;
  bool sharded;            // run on the sharded engine
  uint32_t shards;         // its shard count in --trace 0 runs
  uint32_t traced_shards;  // and in --trace 1 runs (both passes)
  size_t setups;           // set-ups per untraced run
  size_t prefix;           // queries behind the simulated metrics
  size_t stream;           // generated queries, cycled by the timed phase
};

/// Inputs of one seed, generated before any timing starts.
struct Inputs {
  std::unique_ptr<gridvine::BioWorkload> wl;
  Corpus corpus;
  BioIndex idx;
  std::vector<BioQuery> stream;
  Reference ref;
  std::vector<uint32_t> ref_of;                // per stream query
  std::vector<std::vector<uint32_t>> answers;  // reference answer sets
};

Inputs MakeInputs(const Args& args, const Params& p) {
  Inputs in;
  in.wl = std::make_unique<gridvine::BioWorkload>(E1Corpus(args.seed));
  in.corpus = CopyCorpus(*in.wl);
  in.idx = IndexCorpus(*in.wl, in.corpus);
  in.stream = MakeStream(in.idx, p.stream, p.peers, 0.0, SubSeed(args.seed, 3));
  for (const auto& ts : in.corpus.triples) {
    for (const auto& t : ts) in.ref.Insert(t);
  }
  std::map<uint64_t, uint32_t> key_to_answer;
  for (const BioQuery& q : in.stream) {
    uint64_t key = (uint64_t(q.attr) << 32) | q.frag;
    auto [it, fresh] = key_to_answer.emplace(key, uint32_t(in.answers.size()));
    if (fresh) {
      in.answers.push_back(in.ref.Match(in.idx.attrs[q.attr],
                                        "%" + in.idx.frags[q.frag] + "%"));
    }
    in.ref_of.push_back(it->second);
  }
  return in;
}

struct Phase {
  SimAgg agg;
  double host_qps = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t wrong_rows = 0;
  double found_all = 0;
  double call_s = 0;       // host (CPU) seconds inside SearchFor
  double phase_wall_s = 0;  // wall-clock length of the phase
  uint64_t events = 0;
  double barrier_s = 0;
  double rss_mb = 0;  // peak resident memory when the prefix completed
  std::vector<double> call_us;
};

/// Closed loop: at least `prefix` queries and at least `seconds` of wall
/// time. Simulated metrics cover the prefix; host_qps is the FloorRate of
/// 0.25 s wall-time slices, counting only host time inside SearchFor.
Phase RunPhase(GridVineNetwork& net, const Inputs& in, const Params& p,
               double seconds, HostSpans* spans) {
  Phase ph;
  const NetTotals n0 = Totals(net);
  const uint64_t ev0 = EventsExecuted(net);
  const double barrier0 =
      net.engine() ? net.engine()->barrier_wait_seconds() : 0;
  const double slice_len = 0.25;
  std::vector<double> rates;
  const auto phase0 = Clock::now();
  auto slice0 = phase0;
  double slice_call = 0;
  size_t slice_q = 0;
  for (size_t i = 0;; ++i) {
    if (i >= p.prefix && SecondsSince(phase0) >= seconds) break;
    const size_t k = i % in.stream.size();
    const BioQuery& q = in.stream[k];
    const auto query = SingleQuery(in.idx, q);
    const CpuTimer call;
    gridvine::GridVinePeer::QueryResult res;
    {
      HostSpans::Scope s(spans, "gridvine.search", "gridvine");
      res = net.SearchFor(q.issuer, query);
    }
    const double dt = call.Seconds();
    slice_call += dt;
    ++slice_q;
    if (spans->enabled()) ph.call_us.push_back(dt * 1e6);

    const auto& answer = in.answers[in.ref_of[k]];
    size_t found = 0;
    for (const auto& item : res.items) {
      int64_t id = in.ref.Find(item.value.value());
      if (id >= 0 && SortedContains(answer, uint32_t(id))) {
        ++found;
      } else {
        ++ph.wrong_rows;
      }
    }
    const bool ok = res.status.ok();
    ph.failed += !ok;
    ++ph.queries;
    ph.found_all += double(found);
    if (i < p.prefix) ph.agg.Add(ok, res.latency, found, answer.size());
    if (i + 1 == p.prefix) {
      ph.rss_mb = PeakRssMb();
      const NetTotals n1 = Totals(net);
      ph.agg.msgs = n1.msgs - n0.msgs;
      ph.agg.bytes = n1.bytes - n0.bytes;
    }
    if (SecondsSince(slice0) >= slice_len) {
      if (slice_call > 0) rates.push_back(double(slice_q) / slice_call);
      ph.call_s += slice_call;
      slice0 = Clock::now();
      slice_call = 0;
      slice_q = 0;
    }
  }
  ph.call_s += slice_call;
  if (rates.empty() && slice_call > 0) rates.push_back(slice_q / slice_call);
  ph.host_qps = FloorRate(rates);
  ph.events = EventsExecuted(net) - ev0;
  ph.phase_wall_s = SecondsSince(phase0);
  if (net.engine()) ph.barrier_s = net.engine()->barrier_wait_seconds() - barrier0;
  return ph;
}

void CheckPhase(const Phase& ph, const char* pass, RunOutput* out) {
  if (ph.wrong_rows > 0) {
    out->Fail(std::string(pass) + ": " + std::to_string(ph.wrong_rows) +
              " answer rows outside the reference");
  }
}

RunOutput Run(const Args& args, const Params& p) {
  RunOutput out;
  Inputs in = MakeInputs(args, p);
  const uint32_t shards = args.trace ? p.traced_shards : p.shards;
  auto opts = E1Options(args.seed, p.peers, shards);
  opts.force_sharded = p.sharded;
  HostSpans off(false);

  // Untraced: set up `setups` times, half before the timed phase (which
  // runs on the last of them) and the rest after it, so a host-speed spell
  // of a few seconds does not decide the median.
  std::vector<double> setup_s;
  std::unique_ptr<GridVineNetwork> net;
  SetupTimes times;
  auto set_up = [&](size_t count) {
    for (size_t k = 0; k < count; ++k) {
      net.reset();
      net = SetupE1(opts, in.corpus, &off, &times);
      if (!net) return false;
      setup_s.push_back(times.total_s);
    }
    return true;
  };
  const size_t before = args.trace ? 1 : (p.setups + 1) / 2;
  if (!set_up(before)) {
    out.Fail("set-up failed");
    return out;
  }
  Phase plain = RunPhase(*net, in, p, args.seconds, &off);
  CheckPhase(plain, "untraced", &out);
  out.attempted = plain.queries;
  out.failed = plain.failed;
  out.notes.push_back("queries=" + std::to_string(plain.queries) +
                      " prefix=" + std::to_string(p.prefix) +
                      " triples=" + std::to_string(in.corpus.TotalTriples()) +
                      " peers=" + std::to_string(p.peers) +
                      " shards=" + std::to_string(shards) +
                      (p.sharded ? " (sharded engine)" : ""));
  if (!args.trace) {
    if (!set_up(p.setups - before)) out.Fail("set-up failed");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("host_qps", plain.host_qps, "1/s");
    out.Add("peak_rss_mb", plain.rss_mb, "MiB");
    plain.agg.Emit(&out);
    return out;
  }

  // Traced pass on a fresh deployment of the same seed.
  net.reset();
  HostSpans spans(true);
  int root = spans.Open("run", "harness");
  net = SetupE1(opts, in.corpus, &spans, &times);
  if (!net) {
    out.Fail("traced set-up failed");
    return out;
  }
  net->tracer()->Enable(1 << 15);
  Phase traced = RunPhase(*net, in, p, args.seconds, &spans);
  spans.Close(root);
  CheckPhase(traced, "traced", &out);
  CompareSim(plain.agg, traced.agg, &out);

  std::map<std::string, double> L;
  const double q = double(std::max<uint64_t>(1, traced.queries));
  L["sim.events_per_query"] = double(traced.events) / q;
  L["sim.host_us_per_event"] =
      traced.events ? traced.call_s * 1e6 / double(traced.events) : 0;
  if (net->engine()) {
    auto* e = net->engine();
    L["sim.shard.barrier_wait_frac"] =
        traced.phase_wall_s > 0 ? traced.barrier_s / traced.phase_wall_s : 0;
    L["sim.shard.events_per_epoch"] =
        e->epochs() ? double(e->events_executed()) / double(e->epochs()) : 0;
    const auto st = e->AggregateStats();
    L["sim.shard.cross_shard_frac"] =
        st.messages_sent ? double(e->cross_shard_messages()) /
                               double(st.messages_sent)
                         : 0;
  }
  L["pgrid.retrieve_resp_kb"] = RetrieveResponseKb(*net);
  const TraceShares ts = AnalyzeSimTrace(*net, 1000);
  L["pgrid.hops_per_route"] = ts.hops_per_route;
  L["pgrid.retries_per_query"] = ts.retries_per_query;
  L["cp.queue_share"] = ts.queue;
  L["cp.network_share"] = ts.network;
  L["cp.retry_share"] = ts.retry;
  L["pgrid.build_s"] = times.build_s;
  L["pgrid.bytes_per_peer"] = double(net->MemoryFootprint()) / double(net->size());
  L["store.load_s"] = times.load_s;
  L["query.rows_shipped_per_answer"] =
      traced.found_all > 0
          ? CounterOf(*net, "gv.result_rows_sent") / traced.found_all
          : 0;
  std::sort(traced.call_us.begin(), traced.call_us.end());
  L["gridvine.search_host_us.p50"] = NearestRank(traced.call_us, 0.50);
  L["gridvine.search_host_us.p99"] = NearestRank(traced.call_us, 0.99);
  L["trace.overhead_frac"] =
      plain.host_qps > 0 ? 1.0 - traced.host_qps / plain.host_qps : 0;

  // Replays on the final state (outside the run root). The stream holds no
  // joins, reformulations, writes or self-organization, so query.plan_us,
  // query.expand_us, gridvine.write_host_us and selforg.* stay 0.
  const ReplayInputs replay = BioReplayInputs(in.idx, in.stream, 4000);
  L["store.select_us"] = ReplaySelectUs(*net, replay.patterns, &spans);

  ReportHostTrace(spans, args, root, &out);
  EmitLayers(L, &out);
  return out;
}

}  // namespace

RunOutput RunLookup(const Args& args) {
  return Run(args, {/*peers=*/340, /*sharded=*/false, /*shards=*/1,
                    /*traced_shards=*/1, /*setups=*/15,
                    /*prefix=*/20000, /*stream=*/1 << 16});
}

RunOutput RunScale(const Args& args) {
  // The end-to-end runs use the sharded engine's threadless mode: with two
  // shard threads handing off at a barrier every couple of events, host
  // contention swung host_qps and setup_s by 2-4x between runs. The traced
  // pass runs two shard threads, so the sim.shard.* metrics see the
  // barriers; simulated outcomes are identical for every shard count.
  return Run(args, {/*peers=*/100000, /*sharded=*/true, /*shards=*/1,
                    /*traced_shards=*/2, /*setups=*/3,
                    /*prefix=*/6000, /*stream=*/1 << 16});
}

}  // namespace gvbench
