// Workload `serve`: an open loop of bursty Poisson arrivals through 8
// gateway QueryFrontends, with the extent cache, cross-query batching and
// the responder service model on. Categories are Zipf-skewed over a key
// space larger than the per-peer extent cache; 20% of queries are bind-join
// conjunctive; 5% of operations are writes to queried categories. One round
// is three fixed simulated-rate steps; the timed phase repeats rounds, and
// the simulated metrics come from the first three.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common.h"
#include "gridvine/query_frontend.h"
#include "workloads.h"

namespace gvbench {
namespace {

using gridvine::GridVineNetwork;
using gridvine::Term;
using gridvine::Triple;

constexpr size_t kPeers = 64;
constexpr size_t kGateways = 8;
constexpr size_t kEntities = 16384;
constexpr size_t kCategories = 2048;
constexpr double kZipf = 1.1;
constexpr double kRates[3] = {60, 110, 160};  // base arrivals / sim second
constexpr size_t kPerStep = 3000;
constexpr double kBurstFactor = 4;  // rate multiplier inside a burst
constexpr double kBurstEvery = 5;   // seconds between burst starts
constexpr double kBurstLen = 0.5;   // burst duration
constexpr double kJoinFrac = 0.2;
constexpr double kWriteFrac = 0.05;
constexpr double kDrain = 30;       // idle seconds after each round
constexpr size_t kMaxRounds = 24;
constexpr uint32_t kPrefixRounds = 3;  // rounds behind the simulated metrics
constexpr double kIncrement = 0.5;     // simulated seconds per RunUntil
constexpr uint64_t kSliceQueries = 250;
constexpr double kProbeEvery = 0.25;   // backlog sampling period
constexpr size_t kSetups = 9;

enum class Kind : uint8_t { kScan, kJoin, kInsert, kRemove };

struct Arrival {
  double at = 0;  // offset from the round start, simulated seconds
  uint32_t category = 0;
  uint32_t entity = 0;  // writes only
  uint8_t gateway = 0;
  uint8_t step = 0;
  Kind kind = Kind::kScan;
};

/// Average rate of a step, burst included.
double MeanRate(double base) {
  return base * (1 + (kBurstFactor - 1) * kBurstLen / kBurstEvery);
}

/// The arrival stream of every round, and the extent sizes it leaves.
struct Rounds {
  std::vector<std::vector<Arrival>> arrivals;
  /// Per round: the fewest and most rows any category held at any time.
  std::vector<std::pair<size_t, size_t>> extent_rows;
};

/// Writes keep every category's extent steady, so late rounds see the same
/// data as early ones: a write to a full category removes its oldest
/// entity, a write to a category one short inserts a fresh entity. Entity
/// ids are never reused, so each entity is inserted once and removed at
/// most once. (A removal takes the type triple, which the queries select
/// on; the size triple stays behind on peers no query routes to.)
Rounds MakeRounds(uint64_t seed) {
  constexpr size_t kPerCategory = kEntities / kCategories;
  SeqRng rng(seed);
  Zipf zipf(kCategories, kZipf);
  std::vector<std::deque<uint32_t>> members(kCategories);
  for (uint32_t e = 0; e < kEntities; ++e) members[e % kCategories].push_back(e);
  uint32_t next_entity = kEntities;
  Rounds out;
  out.arrivals.resize(kMaxRounds);
  for (auto& round : out.arrivals) {
    size_t lo = kPerCategory, hi = kPerCategory;
    double t = 0;
    for (uint8_t step = 0; step < 3; ++step) {
      const double step_start = t;
      for (size_t i = 0; i < kPerStep; ++i) {
        double phase = std::fmod(t - step_start, kBurstEvery);
        double rate = kRates[step] * (phase < kBurstLen ? kBurstFactor : 1);
        t += rng.Exponential(rate);
        Arrival a;
        a.at = t;
        a.step = step;
        a.gateway = uint8_t(rng.Below(kGateways));
        a.category = uint32_t(zipf.Draw(&rng));
        if (rng.Bernoulli(kWriteFrac)) {
          auto& m = members[a.category];
          if (m.size() == kPerCategory) {
            a.kind = Kind::kRemove;
            a.entity = m.front();
            m.pop_front();
          } else {
            a.kind = Kind::kInsert;
            a.entity = next_entity++;
            m.push_back(a.entity);
          }
          lo = std::min(lo, m.size());
          hi = std::max(hi, m.size());
        } else {
          a.kind = rng.Bernoulli(kJoinFrac) ? Kind::kJoin : Kind::kScan;
        }
        round.push_back(a);
      }
    }
    out.extent_rows.emplace_back(lo, hi);
  }
  return out;
}

std::string EntityUri(uint32_t e) { return "x:e" + std::to_string(e); }
std::string CategoryOf(uint32_t c) { return "cat" + std::to_string(c); }
std::string SizeOf(uint32_t e) { return std::to_string(e % 5); }

/// The workload's bind-join: a category's entities with their size.
gridvine::ConjunctiveQuery JoinOf(const gridvine::TriplePattern& typed) {
  return gridvine::ConjunctiveQuery(
      {"x", "l"}, {typed, gridvine::TriplePattern(Term::Var("x"),
                                                  Term::Uri("x:size"),
                                                  Term::Var("l"))});
}

std::vector<Triple> EntityTriples(uint32_t e, uint32_t category) {
  return {Triple(Term::Uri(EntityUri(e)), Term::Uri("x:type"),
                 Term::Literal(CategoryOf(category))),
          Triple(Term::Uri(EntityUri(e)), Term::Uri("x:size"),
                 Term::Literal(SizeOf(e)))};
}

/// The deployment does not vary with the seed: which peers own the hottest
/// categories decides most of the queueing, and a seeded placement would
/// make the simulated metrics a lottery over placements rather than a
/// property of the serving stack. The seed varies the arrival stream.
GridVineNetwork::Options ServeOptions() {
  GridVineNetwork::Options o;
  o.num_peers = kPeers;
  o.key_depth = 14;
  o.seed = 20260809;
  o.latency = GridVineNetwork::LatencyKind::kUniform;
  o.latency_param = 0.02;
  o.peer.cache.enabled = true;
  o.peer.cache.max_entries = 32;
  o.peer.batch.enabled = true;
  o.peer.service.enabled = true;
  o.peer.service.per_request = 4e-3;
  o.peer.service.per_item = 4e-4;
  o.peer.service.per_row = 2e-4;
  o.peer.service.per_hit = 1e-4;
  o.peer.frontend.max_concurrent = 8;
  o.peer.frontend.max_queue = 1 << 20;
  return o;
}

/// Existence of one entity's type triple, in simulated time. Base entities
/// exist from before the run.
struct Life {
  uint32_t category = 0;
  double ins_issue = -kInf, ins_ack = -kInf;
  double del_issue = kInf, del_ack = kInf;
};

/// One completed query: its interval and the entity ids of its rows.
struct Outcome {
  double due = 0;
  double done = -1;
  bool ok = false;
  uint8_t step = 0;
  uint32_t category = 0;
  uint32_t round = 0;
  uint64_t wrong = 0;  // rows that failed to parse
  std::vector<uint32_t> rows;
};

struct State {
  GridVineNetwork* net = nullptr;
  HostSpans* spans = nullptr;
  std::vector<Life> life;
  std::vector<Outcome> outcomes;
  std::vector<double> write_ack_s;  // prefix rounds only
  uint64_t writes = 0;
  uint64_t write_failures = 0;
  uint64_t completed = 0;
  double write_host_s = 0;
  std::vector<double> submit_us;
};

bool ParseEntity(const std::string& uri, uint32_t* e) {
  if (uri.rfind("x:e", 0) != 0 || uri.size() < 4) return false;
  char* end = nullptr;
  unsigned long v = std::strtoul(uri.c_str() + 3, &end, 10);
  if (*end != '\0') return false;
  *e = uint32_t(v);
  return true;
}

void Fire(State* st, const Arrival& a, uint32_t round, double due) {
  GridVineNetwork& net = *st->net;
  gridvine::GridVinePeer* gw = net.peer(1 + a.gateway);
  gridvine::Simulator* sim = net.sim();
  if (a.kind == Kind::kInsert || a.kind == Kind::kRemove) {
    Life& l = st->life[a.entity];
    const bool insert = a.kind == Kind::kInsert;
    if (insert) {
      l.category = a.category;
      l.ins_issue = due;
    } else {
      l.del_issue = std::min(l.del_issue, due);
    }
    ++st->writes;
    auto cb = [st, sim, &l, insert, round, due](gridvine::Status s) {
      if (!s.ok()) ++st->write_failures;
      if (insert) {
        l.ins_ack = sim->Now();
      } else {
        l.del_ack = std::min(l.del_ack, sim->Now());
      }
      if (round < kPrefixRounds) st->write_ack_s.push_back(sim->Now() - due);
    };
    const CpuTimer t;
    {
      HostSpans::Scope s(st->spans, "gridvine.write", "gridvine");
      if (insert) {
        gw->InsertTriples(EntityTriples(a.entity, a.category), cb);
      } else {
        gw->RemoveTriple(EntityTriples(a.entity, a.category)[0], cb);
      }
    }
    st->write_host_s += t.Seconds();
    return;
  }
  const size_t slot = st->outcomes.size();
  Outcome o;
  o.due = due;
  o.step = a.step;
  o.category = a.category;
  o.round = round;
  st->outcomes.push_back(std::move(o));
  const auto typed = gridvine::TriplePattern(
      Term::Var("x"), Term::Uri("x:type"), Term::Literal(CategoryOf(a.category)));
  const CpuTimer t;
  HostSpans::Scope s(st->spans, "gridvine.submit", "gridvine");
  if (a.kind == Kind::kJoin) {
    const gridvine::ConjunctiveQuery cq = JoinOf(typed);
    gridvine::GridVinePeer::QueryOptions opts;
    opts.bind_join = true;
    gw->frontend()->SubmitConjunctive(
        cq, opts, [st, sim, slot](gridvine::GridVinePeer::ConjunctiveResult r) {
          Outcome& o = st->outcomes[slot];
          o.done = sim->Now();
          o.ok = r.status.ok();
          ++st->completed;
          for (const auto& row : r.rows) {
            auto x = row.find("x");
            auto l = row.find("l");
            uint32_t e;
            if (x == row.end() || l == row.end() ||
                !ParseEntity(x->second.value(), &e) ||
                l->second.value() != SizeOf(e)) {
              ++o.wrong;
              continue;
            }
            o.rows.push_back(e);
          }
        });
  } else {
    gw->frontend()->Submit(
        gridvine::TriplePatternQuery("x", typed), {},
        [st, sim, slot](gridvine::GridVinePeer::QueryResult r) {
          Outcome& o = st->outcomes[slot];
          o.done = sim->Now();
          o.ok = r.status.ok();
          ++st->completed;
          for (const auto& item : r.items) {
            uint32_t e;
            if (!ParseEntity(item.value.value(), &e)) {
              ++o.wrong;
              continue;
            }
            o.rows.push_back(e);
          }
        });
  }
  if (st->spans->enabled()) st->submit_us.push_back(t.Seconds() * 1e6);
}

/// Gateway admission backlog of one step, sampled every kProbeEvery
/// simulated seconds of its first round: the means over the step's first
/// and last quarter.
struct StepProbe {
  std::vector<double> samples;
  double start_queue = 0;
  double end_queue = 0;
  void Summarize() {
    const size_t q = std::max<size_t>(1, samples.size() / 4);
    if (samples.size() < 2 * q) return;
    double a = 0, b = 0;
    for (size_t i = 0; i < q; ++i) {
      a += samples[i];
      b += samples[samples.size() - 1 - i];
    }
    start_queue = a / double(q);
    end_queue = b / double(q);
  }
};

struct Phase {
  SimAgg agg;
  double host_qps = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t wrong_rows = 0;
  uint64_t writes = 0;
  double run_s = 0;
  uint64_t events = 0;
  double found_all = 0;
  double max_rate = 0;
  double write_p99_s = 0;
  double rss_mb = 0;  // peak resident memory when the prefix completed
  double step_p99[3] = {0, 0, 0};
  StepProbe probes[3];
  std::vector<double> submit_us;
  double write_host_s = 0;
  uint32_t rounds = 0;  // rounds run
};

size_t QueuedAtGateways(GridVineNetwork& net) {
  size_t q = 0;
  for (size_t g = 0; g < kGateways; ++g) {
    q += net.peer(1 + g)->frontend()->queue_depth();
  }
  return q;
}

Phase RunPhase(GridVineNetwork& net, const std::vector<std::vector<Arrival>>& rounds,
               double seconds, HostSpans* spans) {
  Phase ph;
  State st;
  st.net = &net;
  st.spans = spans;
  st.life.resize(kEntities + rounds.size() * 3 * kPerStep);
  for (uint32_t e = 0; e < kEntities; ++e) st.life[e].category = e % kCategories;
  gridvine::Simulator* sim = net.sim();
  NetTotals n0 = Totals(net);
  const uint64_t ev0 = EventsExecuted(net);
  std::vector<double> rates;
  uint64_t slice_done0 = 0;
  double slice_s = 0;
  const auto phase0 = Clock::now();
  for (uint32_t r = 0; r < rounds.size(); ++r) {
    if (r >= kPrefixRounds && SecondsSince(phase0) >= seconds) break;
    ph.rounds = r + 1;
    const double base = net.Now();
    const auto& arrivals = rounds[r];
    for (const Arrival& a : arrivals) {
      const double due = base + a.at;
      sim->ScheduleAt(due, [&st, &a, r, due] { Fire(&st, a, r, due); });
    }
    if (r == 0) {
      for (uint8_t s = 0; s < 3; ++s) {
        const double first = arrivals[s * kPerStep].at;
        const double last = arrivals[(s + 1) * kPerStep - 1].at;
        StepProbe* p = &ph.probes[s];
        for (double t = first; t <= last; t += kProbeEvery) {
          sim->ScheduleAt(base + t, [p, &net] {
            p->samples.push_back(double(QueuedAtGateways(net)));
          });
        }
      }
    }
    // The simulator advances in short increments; a host_qps slice closes
    // once it holds kSliceQueries completions.
    const double end = base + arrivals.back().at + kDrain;
    for (double t = base; t < end;) {
      t = std::min(end, t + kIncrement);
      const CpuTimer timer;
      {
        HostSpans::Scope span(spans, "sim.run_until", "sim");
        net.RunUntil(t);
      }
      const double dt = timer.Seconds();
      ph.run_s += dt;
      slice_s += dt;
      if (st.completed - slice_done0 >= kSliceQueries) {
        rates.push_back(double(st.completed - slice_done0) / slice_s);
        slice_done0 = st.completed;
        slice_s = 0;
      }
    }
    if (r + 1 == kPrefixRounds) {
      ph.rss_mb = PeakRssMb();
      const NetTotals n1 = Totals(net);
      ph.agg.msgs = n1.msgs - n0.msgs;
      ph.agg.bytes = n1.bytes - n0.bytes;
    }
  }
  ph.host_qps = FloorRate(rates);
  ph.events = EventsExecuted(net) - ev0;
  ph.writes = st.writes;
  ph.failed = st.write_failures;
  ph.write_host_s = st.write_host_s;
  ph.submit_us = std::move(st.submit_us);

  // Check every outcome against the write history.
  std::vector<std::vector<uint32_t>> inserted(kCategories);
  for (uint32_t e = kEntities; e < st.life.size(); ++e) {
    if (st.life[e].ins_issue > -kInf) inserted[st.life[e].category].push_back(e);
  }
  std::vector<std::vector<double>> step_lat(3);
  for (const Outcome& o : st.outcomes) {
    ++ph.queries;
    const bool ok = o.ok && o.done >= 0;
    ph.failed += !ok;
    ph.wrong_rows += o.wrong;
    std::vector<uint32_t> rows = o.rows;
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    const double done = o.done >= 0 ? o.done : kInf;
    size_t found = 0;
    for (uint32_t e : rows) {
      const Life* l = e < st.life.size() ? &st.life[e] : nullptr;
      bool existed = l != nullptr && l->category == o.category &&
                     l->ins_issue <= done && l->del_ack >= o.due &&
                     (e < kEntities || l->ins_issue > -kInf);
      if (!existed) {
        ++ph.wrong_rows;
        continue;
      }
      found += l->ins_ack <= o.due && l->del_issue > done;
    }
    ph.found_all += double(found);
    if (o.round >= kPrefixRounds) continue;
    // Expected: entities of the category present for the whole query.
    size_t expected = 0;
    for (uint32_t e = o.category; e < kEntities; e += kCategories) {
      expected += st.life[e].del_issue > done;
    }
    for (uint32_t e : inserted[o.category]) {
      const Life& l = st.life[e];
      expected += l.ins_ack <= o.due && l.del_issue > done;
    }
    ph.agg.Add(ok, done - o.due, found, expected);
    step_lat[o.step].push_back(ok ? done - o.due : kInf);
  }
  for (int s = 0; s < 3; ++s) {
    ph.probes[s].Summarize();
    std::sort(step_lat[s].begin(), step_lat[s].end());
    ph.step_p99[s] = NearestRank(step_lat[s], 0.99);
    const bool bounded = ph.probes[s].end_queue <=
                         ph.probes[s].start_queue + double(kGateways);
    if (ph.step_p99[s] <= 1.0 && bounded) ph.max_rate = MeanRate(kRates[s]);
  }
  std::sort(st.write_ack_s.begin(), st.write_ack_s.end());
  ph.write_p99_s = NearestRank(st.write_ack_s, 0.99);
  return ph;
}

std::unique_ptr<GridVineNetwork> Setup(HostSpans* spans,
                                       SetupTimes* times) {
  HostSpans::Scope setup(spans, "setup", "harness");
  const CpuTimer total;
  std::unique_ptr<GridVineNetwork> net;
  {
    HostSpans::Scope s(spans, "pgrid.build", "pgrid");
    net = std::make_unique<GridVineNetwork>(ServeOptions());
  }
  times->build_s = total.Seconds();
  const CpuTimer load;
  std::vector<Triple> corpus;
  corpus.reserve(2 * kEntities);
  for (uint32_t e = 0; e < kEntities; ++e) {
    for (auto& t : EntityTriples(e, e % kCategories)) corpus.push_back(t);
  }
  gridvine::Status st;
  {
    HostSpans::Scope s(spans, "store.insert_triples", "store");
    st = net->InsertTriples(0, corpus);
  }
  {
    HostSpans::Scope s(spans, "sim.settle", "sim");
    net->Settle();
  }
  times->load_s = load.Seconds();
  times->total_s = total.Seconds();
  if (!st.ok()) {
    std::fprintf(stderr, "set-up: load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return net;
}

void CheckPhase(const Phase& ph, const char* pass, RunOutput* out) {
  if (ph.wrong_rows > 0) {
    out->Fail(std::string(pass) + ": " + std::to_string(ph.wrong_rows) +
              " answer rows that did not exist during their query");
  }
}

}  // namespace

RunOutput RunServe(const Args& args) {
  RunOutput out;
  const Rounds gen = MakeRounds(SubSeed(args.seed, 3));
  const auto& rounds = gen.arrivals;
  HostSpans off(false);
  // Set-ups before and after the timed phase, as for lookup.
  std::vector<double> setup_s;
  std::unique_ptr<GridVineNetwork> net;
  SetupTimes times;
  auto set_up = [&](size_t count) {
    for (size_t k = 0; k < count; ++k) {
      net.reset();
      net = Setup(&off, &times);
      if (!net) return false;
      setup_s.push_back(times.total_s);
    }
    return true;
  };
  const size_t before = args.trace ? 1 : (kSetups + 1) / 2;
  if (!set_up(before)) {
    out.Fail("set-up failed");
    return out;
  }
  Phase plain = RunPhase(*net, rounds, args.seconds, &off);
  CheckPhase(plain, "untraced", &out);
  out.attempted = plain.queries + plain.writes;
  out.failed = plain.failed;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "arrivals=%llu writes=%llu step_rates=%.0f/%.0f/%.0f "
                "step_p99_s=%.3f/%.3f/%.3f backlog=%.1f->%.1f/%.1f->%.1f/"
                "%.1f->%.1f",
                (unsigned long long)plain.queries,
                (unsigned long long)plain.writes, MeanRate(kRates[0]),
                MeanRate(kRates[1]), MeanRate(kRates[2]), plain.step_p99[0],
                plain.step_p99[1], plain.step_p99[2],
                plain.probes[0].start_queue, plain.probes[0].end_queue,
                plain.probes[1].start_queue, plain.probes[1].end_queue,
                plain.probes[2].start_queue, plain.probes[2].end_queue);
  out.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "write_p99_s=%.6f s  sim_max_rate_qps=%.1f 1/s",
                plain.write_p99_s, plain.max_rate);
  out.notes.push_back(buf);
  std::string extents = "extent rows (min-max) per round:";
  for (uint32_t r = 0; r < plain.rounds; ++r) {
    std::snprintf(buf, sizeof buf, " %zu-%zu", gen.extent_rows[r].first,
                  gen.extent_rows[r].second);
    extents += buf;
  }
  out.notes.push_back(extents);
  if (!args.trace) {
    if (!set_up(kSetups - before)) out.Fail("set-up failed");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("host_qps", plain.host_qps, "1/s");
    out.Add("peak_rss_mb", plain.rss_mb, "MiB");
    plain.agg.Emit(&out);
    return out;
  }

  net.reset();
  HostSpans spans(true);
  int root = spans.Open("run", "harness");
  net = Setup(&spans, &times);
  if (!net) {
    out.Fail("traced set-up failed");
    return out;
  }
  net->tracer()->Enable(1 << 16);
  Phase traced = RunPhase(*net, rounds, args.seconds, &spans);
  spans.Close(root);
  CheckPhase(traced, "traced", &out);
  CompareSim(plain.agg, traced.agg, &out);

  std::map<std::string, double> L;
  const double q = double(std::max<uint64_t>(1, traced.queries));
  L["sim.events_per_query"] = double(traced.events) / q;
  L["sim.host_us_per_event"] =
      traced.events ? traced.run_s * 1e6 / double(traced.events) : 0;
  const TraceShares ts = AnalyzeSimTrace(*net, 1000);
  L["pgrid.hops_per_route"] = ts.hops_per_route;
  L["pgrid.retries_per_query"] = ts.retries_per_query;
  L["cp.queue_share"] = ts.queue;
  L["cp.network_share"] = ts.network;
  L["cp.retry_share"] = ts.retry;
  L["pgrid.build_s"] = times.build_s;
  L["pgrid.bytes_per_peer"] =
      double(net->MemoryFootprint()) / double(net->size());
  L["store.load_s"] = times.load_s;
  L["query.rows_shipped_per_answer"] =
      traced.found_all > 0
          ? CounterOf(*net, "gv.result_rows_sent") / traced.found_all
          : 0;
  uint64_t hits = 0, misses = 0, invalidations = 0, shed = 0, submitted = 0;
  uint64_t max_queue = 0, items = 0, flushes = 0;
  for (size_t p = 0; p < net->size(); ++p) {
    const auto* peer = net->peer(p);
    if (const auto* c = peer->cache()) {
      hits += c->stats().hits;
      misses += c->stats().misses;
      invalidations += c->stats().invalidations;
    }
    const auto fs = peer->frontend()->stats();
    shed += fs.shed;
    submitted += fs.submitted;
    max_queue = std::max(max_queue, fs.max_queue_depth);
    items += peer->counters().batch_items;
    flushes += peer->counters().batch_flushes;
  }
  L["query.cache_hit_rate"] =
      hits + misses ? double(hits) / double(hits + misses) : 0;
  L["query.cache_invalidations_per_write"] =
      traced.writes ? double(invalidations) / double(traced.writes) : 0;
  L["gridvine.frontend.shed_frac"] =
      submitted ? double(shed) / double(submitted) : 0;
  L["gridvine.frontend.max_queue_depth"] = double(max_queue);
  L["gridvine.batch_items_per_flush"] =
      flushes ? double(items) / double(flushes) : 0;
  std::sort(traced.submit_us.begin(), traced.submit_us.end());
  L["gridvine.search_host_us.p50"] = NearestRank(traced.submit_us, 0.50);
  L["gridvine.search_host_us.p99"] = NearestRank(traced.submit_us, 0.99);
  L["gridvine.write_host_us"] =
      traced.writes ? traced.write_host_s * 1e6 / double(traced.writes) : 0;
  L["trace.overhead_frac"] =
      plain.host_qps > 0 ? 1.0 - traced.host_qps / plain.host_qps : 0;

  // Replays on the final state: the first round's categories as
  // selections and joins. The workload bypasses reformulation and
  // self-organization, so query.expand_us and selforg.* stay 0.
  std::vector<gridvine::TriplePattern> patterns;
  std::vector<gridvine::ConjunctiveQuery> joins;
  for (size_t i = 0; i < 4000 && i < rounds[0].size(); ++i) {
    const Arrival& a = rounds[0][i];
    if (a.kind != Kind::kScan && a.kind != Kind::kJoin) continue;
    const gridvine::TriplePattern typed(
        Term::Var("x"), Term::Uri("x:type"),
        Term::Literal(CategoryOf(a.category)));
    patterns.push_back(typed);
    if (a.kind == Kind::kJoin) joins.push_back(JoinOf(typed));
  }
  L["store.select_us"] = ReplaySelectUs(*net, patterns, &spans);
  L["query.plan_us"] = ReplayPlanUs(joins, &spans);

  ReportHostTrace(spans, args, root, &out);
  EmitLayers(L, &out);
  return out;
}

}  // namespace gvbench
