// Experiment E8 — microbenchmarks of the local database DB_p, the overlay
// storage under it and the hash functions (paper Section 2.2: each peer's
// local store supports selection, projection and join; every triple is
// hashed three times on insert).
//
// google-benchmark binary; run with --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "pgrid/pgrid_peer.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/binding_codec.h"
#include "store/triple_store.h"

namespace gridvine {
namespace {

Triple MakeTriple(int i) {
  return Triple(Term::Uri("ebi:P" + std::to_string(100000 + i % 500)),
                Term::Uri("EMBL#Attr" + std::to_string(i % 8)),
                Term::Literal("value " + std::to_string(i % 64)));
}

TripleStore BuildStore(int n) {
  TripleStore store;
  for (int i = 0; i < n; ++i) store.Insert(MakeTriple(i)).ok();
  return store;
}

void BM_TripleInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TripleStore store;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(store.Insert(MakeTriple(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleInsert)->Arg(1000)->Arg(10000);

void BM_TripleInsertBatch(benchmark::State& state) {
  std::vector<Triple> batch;
  for (int i = 0; i < state.range(0); ++i) batch.push_back(MakeTriple(i));
  for (auto _ : state) {
    state.PauseTiming();
    TripleStore store;
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.InsertBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleInsertBatch)->Arg(1000)->Arg(10000);

void BM_SelectByPredicate(benchmark::State& state) {
  TripleStore store = BuildStore(int(state.range(0)));
  TriplePattern pattern(Term::Var("s"), Term::Uri("EMBL#Attr3"),
                        Term::Var("o"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Select(pattern));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectByPredicate)->Arg(1000)->Arg(10000);

void BM_SelectBySubject(benchmark::State& state) {
  TripleStore store = BuildStore(int(state.range(0)));
  TriplePattern pattern(Term::Uri("ebi:P100042"), Term::Var("p"),
                        Term::Var("o"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Select(pattern));
  }
}
BENCHMARK(BM_SelectBySubject)->Arg(1000)->Arg(10000);

void BM_SelectWithLikePattern(benchmark::State& state) {
  TripleStore store = BuildStore(int(state.range(0)));
  TriplePattern pattern(Term::Var("s"), Term::Uri("EMBL#Attr3"),
                        Term::Literal("%value 1%"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Select(pattern));
  }
}
BENCHMARK(BM_SelectWithLikePattern)->Arg(1000)->Arg(10000);

void BM_SelfJoin(benchmark::State& state) {
  TripleStore store = BuildStore(int(state.range(0)));
  TriplePattern left(Term::Var("x"), Term::Uri("EMBL#Attr1"), Term::Var("a"));
  TriplePattern right(Term::Var("x"), Term::Uri("EMBL#Attr2"), Term::Var("b"));
  for (auto _ : state) {
    auto l = store.MatchPattern(left);
    auto r = store.MatchPattern(right);
    benchmark::DoNotOptimize(TripleStore::Join(l, r));
  }
}
BENCHMARK(BM_SelfJoin)->Arg(1000)->Arg(5000);

// The join alone, on prebuilt binding sets (BM_SelfJoin also measures the
// two MatchPattern calls feeding it).
void BM_HashJoin(benchmark::State& state) {
  TripleStore store = BuildStore(int(state.range(0)));
  TriplePattern left(Term::Var("x"), Term::Uri("EMBL#Attr1"), Term::Var("a"));
  TriplePattern right(Term::Var("x"), Term::Uri("EMBL#Attr2"), Term::Var("b"));
  auto l = store.MatchPattern(left);
  auto r = store.MatchPattern(right);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TripleStore::Join(l, r));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(l.size() + r.size()));
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(5000);

void BM_OrderPreservingHash(benchmark::State& state) {
  OrderPreservingHash h(int(state.range(0)));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h("EMBL#Organism" + std::to_string(i++ % 1000)));
  }
}
BENCHMARK(BM_OrderPreservingHash)->Arg(16)->Arg(32)->Arg(64);

void BM_UniformHash(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        UniformHash("EMBL#Organism" + std::to_string(i++ % 1000), 32));
  }
}
BENCHMARK(BM_UniformHash);

void BM_LikeMatch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LikeMatch("Aspergillus niger strain CBS 513.88", "%niger%strain%"));
  }
}
BENCHMARK(BM_LikeMatch);

void BM_TripleSerializeParse(benchmark::State& state) {
  Triple t = MakeTriple(7);
  for (auto _ : state) {
    std::string s = t.Serialize();
    benchmark::DoNotOptimize(Triple::Parse(s));
  }
}
BENCHMARK(BM_TripleSerializeParse);

void BM_BindingCodec(benchmark::State& state) {
  std::vector<BindingSet> rows;
  for (int i = 0; i < 64; ++i) {
    BindingSet row;
    row["x"] = Term::Uri("ebi:P" + std::to_string(i));
    row["o"] = Term::Literal("Aspergillus niger");
    rows.push_back(row);
  }
  for (auto _ : state) {
    std::string s = SerializeBindings(rows);
    benchmark::DoNotOptimize(ParseBindings(s));
  }
}
BENCHMARK(BM_BindingCodec);

// The overlay storage of one P-Grid peer with N values under one key — the
// order-preserving hash puts every triple of a predicate on one key. Each
// iteration inserts the N values, then erases them in a fixed shuffled
// order; items are insert+erase pairs.
void BM_OverlayEraseHotKey(benchmark::State& state) {
  const int n = int(state.range(0));
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.05), Rng(1));
  PGridPeer peer(&sim, &net, Rng(2), PGridPeer::Options{});
  const Key key = OrderPreservingHash(16)("x:type");
  std::vector<std::string> values;
  for (int i = 0; i < n; ++i) {
    values.push_back("http://example.org/bio/entity/" + std::to_string(i));
  }
  std::vector<std::string> erase_order = values;
  std::shuffle(erase_order.begin(), erase_order.end(), std::mt19937_64(7));
  for (auto _ : state) {
    for (const auto& v : values) peer.InsertLocal(key, v);
    for (const auto& v : erase_order) {
      benchmark::DoNotOptimize(peer.EraseLocal(key, v));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OverlayEraseHotKey)->Arg(1000)->Arg(16000);

}  // namespace
}  // namespace gridvine

BENCHMARK_MAIN();
