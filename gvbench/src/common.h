#ifndef GVBENCH_COMMON_H_
#define GVBENCH_COMMON_H_

// Pieces shared by the workloads: arguments, the E1 deployment and its
// corpus index, the compact seeded query stream, the simulated-outcome
// aggregator and the readers of the program's public counters.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gridvine/gridvine_network.h"
#include "reference.h"
#include "util.h"
#include "workload/bio_workload.h"

namespace gvbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
};

/// Derives an independent sub-seed for one input stream of a run.
inline uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  SeqRng r(seed * 0x100000001b3ULL + tag);
  return r.Next();
}

// --- The E1 deployment ------------------------------------------------------

/// The paper's Section 2.3 deployment: WAN latency with a heavy log-normal
/// tail and stragglers (the calibration of bench_query_latency's E1).
gridvine::GridVineNetwork::Options E1Options(uint64_t seed, size_t peers,
                                             uint32_t shards);
/// 50 schemas, 500 entities, 42 described per schema: about 16.6k triples.
gridvine::BioWorkload::Options E1Corpus(uint64_t seed);

/// Schemas and triples as loaded at set-up, copied out of the workload so
/// later schema evolution of the workload object does not change them.
struct Corpus {
  std::vector<gridvine::Schema> schemas;
  std::vector<std::vector<gridvine::Triple>> triples;
  size_t TotalTriples() const;
};
Corpus CopyCorpus(const gridvine::BioWorkload& wl);

struct SetupTimes {
  double total_s = 0;  // construction + loads + Settle
  double build_s = 0;  // GridVineNetwork construction (P-Grid wiring)
  double load_s = 0;   // InsertSchema/InsertTriples through Settle
};

/// Owner of schema `s` (and of the mappings whose source it is).
inline size_t OwnerOf(size_t schema, size_t peers) {
  return (schema * 7) % peers;
}

/// Builds the deployment and loads the corpus (schema s owned by
/// OwnerOf(s)) and then `mappings`, if given, through their source
/// schema's owner. Returns null (and says why on stderr) if a load fails.
std::unique_ptr<gridvine::GridVineNetwork> SetupE1(
    const gridvine::GridVineNetwork::Options& opts, const Corpus& corpus,
    HostSpans* spans, SetupTimes* times,
    const std::vector<gridvine::SchemaMapping>* mappings = nullptr);

// --- Corpus index and query stream ----------------------------------------

/// Attribute URIs and query fragments of a corpus, as dense ids.
struct BioIndex {
  std::vector<std::string> attrs;  // attribute URI per id
  std::unordered_map<std::string, uint32_t> attr_id;
  std::vector<std::string> attr_concept;                 // per attr id
  std::vector<std::vector<uint32_t>> schema_attrs;       // all, per schema
  std::vector<std::vector<uint32_t>> schema_like_attrs;  // LIKE-queryable
  std::vector<std::string> frags;
  /// Per attr id: the fragment of each described entity's value.
  std::vector<std::vector<uint32_t>> attr_frags;
};
BioIndex IndexCorpus(const gridvine::BioWorkload& wl, const Corpus& corpus);

/// One query of a stream, 16 bytes: SearchFor(x? : (x, attr, "%frag%")),
/// joined with (x, attr2, ?v) when attr2 != kNone.
struct BioQuery {
  static constexpr uint32_t kNone = UINT32_MAX;
  uint32_t attr = 0;
  uint32_t frag = 0;
  uint32_t issuer = 0;
  uint32_t attr2 = kNone;
};

/// The MakeQuery shape, drawn from the index: a uniform schema, one of its
/// categorical attributes, the value of one entity it describes.
std::vector<BioQuery> MakeStream(const BioIndex& idx, size_t n, size_t peers,
                                 double conj_frac, uint64_t seed);

gridvine::TriplePatternQuery SingleQuery(const BioIndex& idx,
                                         const BioQuery& q);
gridvine::ConjunctiveQuery JoinQuery(const BioIndex& idx, const BioQuery& q);

// --- Simulated outcomes ----------------------------------------------------

/// Aggregates the simulated metrics over a deterministic query prefix. A
/// failed query has infinite latency, so it misses every latency limit.
struct SimAgg {
  std::vector<double> latency;
  uint64_t ok = 0;
  double found = 0;
  double expected = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;

  void Add(bool success, double latency_s, size_t found_rows,
           size_t expected_rows) {
    latency.push_back(success ? latency_s : kInf);
    ok += success;
    found += double(found_rows);
    expected += double(expected_rows);
  }
  /// The eight simulated end-to-end metrics.
  void Emit(RunOutput* out) const;
  /// Same metrics as (name, value) for the bit-identity self-check.
  std::vector<std::pair<std::string, double>> Values() const;
};

struct NetTotals {
  uint64_t msgs = 0;
  uint64_t bytes = 0;
};
NetTotals Totals(gridvine::GridVineNetwork& net);
uint64_t EventsExecuted(gridvine::GridVineNetwork& net);

/// Sum of a counter over the deployment's CollectMetrics() snapshot.
double CounterOf(gridvine::GridVineNetwork& net, const std::string& name);

/// Mean KiB per P-Grid retrieve response sent so far (0 when none).
double RetrieveResponseKb(gridvine::GridVineNetwork& net);

/// Critical-path shares and hops/retries over the last `max_roots` traces
/// still held by the deployment's simulated-time tracer.
struct TraceShares {
  size_t roots = 0;
  double queue = 0, network = 0, retry = 0;
  double hops_per_route = 0;
  double retries_per_query = 0;
};
TraceShares AnalyzeSimTrace(gridvine::GridVineNetwork& net, size_t max_roots);

/// Peer whose P-Grid path is a prefix of `key` (the responsible peer).
class Responsibility {
 public:
  explicit Responsibility(gridvine::GridVineNetwork& net);
  size_t PeerFor(const std::string& term) const;

 private:
  gridvine::GridVineNetwork& net_;
  std::unordered_map<std::string, size_t> by_path_;
};

/// Inputs of the replays: single patterns, their queries, and the stream's
/// 2-pattern joins.
struct ReplayInputs {
  std::vector<gridvine::TriplePattern> patterns;
  std::vector<gridvine::TriplePatternQuery> queries;
  std::vector<gridvine::ConjunctiveQuery> joins;
};
/// The first `count` stream queries: every query's pattern, and the joins
/// among them (none for a single-pattern stream).
ReplayInputs BioReplayInputs(const BioIndex& idx,
                             const std::vector<BioQuery>& stream,
                             size_t count);

/// Replays each pattern with TripleStore::Select on the local database of
/// the peer responsible for its routing constant; mean host microseconds
/// per Select.
double ReplaySelectUs(gridvine::GridVineNetwork& net,
                      const std::vector<gridvine::TriplePattern>& patterns,
                      HostSpans* spans);

/// Replays PlanPhysical; mean host microseconds per plan.
double ReplayPlanUs(const std::vector<gridvine::ConjunctiveQuery>& queries,
                    HostSpans* spans);

/// Replays ReformulationCache::Expand on `graph` (one cache for the whole
/// replay, as a peer keeps one); mean host microseconds per Expand.
double ReplayExpandUs(const gridvine::MappingGraph& graph,
                      const std::vector<gridvine::TriplePatternQuery>& queries,
                      int max_hops, HostSpans* spans);

/// Directory of the traced pass's Chrome trace and per-layer table.
constexpr const char* kOutDir = ".bench_out";

/// Writes the per-layer self-time table and the Chrome trace; adds
/// nothing to the result line.
void ReportHostTrace(const HostSpans& spans, const Args& args, int run_root,
                     RunOutput* out);

/// Every per-layer metric of the traced run, with its unit, in the order
/// the result line lists them. A workload that does not exercise a layer
/// reports 0 for its counts and shares.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics();

/// Adds every LayerMetrics() entry to `out`, taking values from `values`
/// (0 when absent); fails the run on a name LayerMetrics() lacks.
void EmitLayers(const std::map<std::string, double>& values, RunOutput* out);

/// Runs the simulated-metrics comparison between the untraced and traced
/// passes of one seed; a difference fails the run.
void CompareSim(const SimAgg& untraced, const SimAgg& traced,
                RunOutput* out);

}  // namespace gvbench

#endif  // GVBENCH_COMMON_H_
