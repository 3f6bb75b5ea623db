#include "pgrid/pgrid_peer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pgrid/pgrid_builder.h"

namespace gridvine {
namespace {

Key K(const std::string& bits) { return Key::FromBits(bits).value(); }

/// Fixture owning a small, manually wired 4-peer overlay over 2-bit paths:
/// peers 0..3 own paths 00, 01, 10, 11.
class PGridPeerTest : public ::testing::Test {
 protected:
  PGridPeerTest()
      : net_(&sim_, std::make_unique<ConstantLatency>(0.05), Rng(42)) {
    PGridPeer::Options opts;
    opts.key_depth = 4;
    opts.retry.base_timeout = 2.0;
    opts.retry.max_attempts = 2;
    for (int i = 0; i < 4; ++i) {
      peers_.push_back(
          std::make_unique<PGridPeer>(&sim_, &net_, Rng(uint64_t(100 + i)), opts));
    }
    std::vector<PGridPeer*> raw;
    for (auto& p : peers_) raw.push_back(p.get());
    PGridBuilder::BuildBalanced(raw, &bootstrap_rng_, /*refs_per_level=*/2);
  }

  PGridPeer* peer(size_t i) { return peers_[i].get(); }

  Simulator sim_;
  Network net_;
  Rng bootstrap_rng_{7};
  std::vector<std::unique_ptr<PGridPeer>> peers_;
};

TEST_F(PGridPeerTest, PathsAssigned) {
  EXPECT_EQ(peer(0)->path(), K("00"));
  EXPECT_EQ(peer(1)->path(), K("01"));
  EXPECT_EQ(peer(2)->path(), K("10"));
  EXPECT_EQ(peer(3)->path(), K("11"));
}

TEST_F(PGridPeerTest, Responsibility) {
  EXPECT_TRUE(peer(0)->IsResponsibleFor(K("0010")));
  EXPECT_FALSE(peer(0)->IsResponsibleFor(K("0110")));
  EXPECT_TRUE(peer(3)->IsResponsibleFor(K("1111")));
  // Short key prefixing the path counts as in-subtree.
  EXPECT_TRUE(peer(0)->IsResponsibleFor(K("0")));
}

TEST_F(PGridPeerTest, LocalUpdateAndRetrieve) {
  bool done = false;
  peer(0)->Update(K("0011"), "hello", [&](Result<PGridPeer::UpdateOutcome> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->hops, 0);
    done = true;
  });
  EXPECT_TRUE(done);  // responsible locally: synchronous
  bool got = false;
  peer(0)->Retrieve(K("0011"), [&](Result<PGridPeer::LookupResult> r) {
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->values.size(), 1u);
    EXPECT_EQ(r->values[0], "hello");
    got = true;
  });
  EXPECT_TRUE(got);
}

TEST_F(PGridPeerTest, RemoteUpdateThenRemoteRetrieve) {
  bool stored = false;
  peer(0)->Update(K("1101"), "v-remote",
                  [&](Result<PGridPeer::UpdateOutcome> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    EXPECT_GE(r->hops, 1);
                    stored = true;
                  });
  sim_.Run();
  ASSERT_TRUE(stored);
  // The responsible peer for prefix "11" now holds the entry.
  EXPECT_EQ(peer(3)->StorageSize(), 1u);
  EXPECT_EQ(peer(3)->storage().begin()->second, "v-remote");
}

TEST_F(PGridPeerTest, RetrieveFindsRemoteValue) {
  peer(3)->InsertLocal(K("1101"), "stored-at-3");
  bool got = false;
  peer(0)->Retrieve(K("1101"), [&](Result<PGridPeer::LookupResult> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->values.size(), 1u);
    EXPECT_EQ(r->values[0], "stored-at-3");
    EXPECT_GE(r->hops, 1);
    EXPECT_GT(r->rtt, 0.0);
    got = true;
  });
  sim_.Run();
  EXPECT_TRUE(got);
}

TEST_F(PGridPeerTest, PrefixRetrieveCollectsSubtree) {
  peer(1)->InsertLocal(K("0100"), "a");
  peer(1)->InsertLocal(K("0101"), "b");
  peer(1)->InsertLocal(K("0111"), "c");
  bool got = false;
  peer(1)->Retrieve(K("010"), [&](Result<PGridPeer::LookupResult> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->values.size(), 2u);  // 0100 and 0101, not 0111
    got = true;
  });
  EXPECT_TRUE(got);
}

TEST_F(PGridPeerTest, InsertIsIdempotent) {
  peer(0)->InsertLocal(K("0000"), "x");
  peer(0)->InsertLocal(K("0000"), "x");
  peer(0)->InsertLocal(K("0000"), "y");
  EXPECT_EQ(peer(0)->StorageSize(), 2u);
}

TEST_F(PGridPeerTest, RemoveDeletesRemotely) {
  peer(3)->InsertLocal(K("1110"), "doomed");
  bool removed = false;
  peer(0)->Remove(K("1110"), "doomed", [&](Result<PGridPeer::UpdateOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    removed = true;
  });
  sim_.Run();
  EXPECT_TRUE(removed);
  EXPECT_EQ(peer(3)->StorageSize(), 0u);
}

TEST_F(PGridPeerTest, RetrieveTimesOutWhenRegionDead) {
  net_.SetAlive(peer(3)->id(), false);
  net_.SetAlive(peer(2)->id(), false);  // whole "1" subtree gone
  bool failed = false;
  peer(0)->Retrieve(K("1100"), [&](Result<PGridPeer::LookupResult> r) {
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsTimeout()) << r.status();
    failed = true;
  });
  sim_.Run();
  EXPECT_TRUE(failed);
  EXPECT_GE(peer(0)->counters().timeouts, 1u);
}

TEST_F(PGridPeerTest, UpdateIsReplicatedToReplicaSet) {
  // Make peer 2 a replica of peer 3 (same path).
  peer(2)->SetPath(K("11"));
  peer(3)->routing()->AddReplica(peer(2)->id());
  bool done = false;
  peer(0)->Update(K("1111"), "copied",
                  [&](Result<PGridPeer::UpdateOutcome> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    done = true;
                  });
  sim_.Run();
  ASSERT_TRUE(done);
  // Whichever of {2,3} handled it, the other must hold the replica copy.
  EXPECT_EQ(peer(2)->StorageSize() + peer(3)->StorageSize(), 2u);
}

TEST_F(PGridPeerTest, EvictForeignEntries) {
  peer(0)->InsertLocal(K("0000"), "mine");
  peer(0)->InsertLocal(K("1100"), "foreign");
  auto evicted = peer(0)->EvictForeignEntries();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].second, "foreign");
  EXPECT_EQ(peer(0)->StorageSize(), 1u);
}

TEST_F(PGridPeerTest, CountersTrackTraffic) {
  peer(3)->InsertLocal(K("1100"), "v");
  peer(0)->Retrieve(K("1100"), [](Result<PGridPeer::LookupResult>) {});
  sim_.Run();
  EXPECT_EQ(peer(0)->counters().retrieves_issued, 1u);
}

/// Reference model of a peer's local storage: per key (ordered by bits, as
/// Key orders), the values in insertion order.
using StorageModel = std::map<std::string, std::vector<std::string>>;
using StorageEvent = std::tuple<UpdateOp, std::string, std::string>;

std::vector<std::pair<std::string, std::string>> Flatten(
    const StorageModel& model) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, values] : model) {
    for (const auto& v : values) out.emplace_back(key, v);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Flatten(
    const std::multimap<Key, std::string>& storage) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, value] : storage) out.emplace_back(key.bits(), value);
  return out;
}

// Seeded random mix of idempotent inserts (fresh and duplicate), erases
// (present and absent) and evictions after path changes, checked against
// the reference model after every step: iteration order, size, return
// values and the storage listener's events.
TEST_F(PGridPeerTest, StorageMatchesReferenceModel) {
  const std::vector<std::string> keys = {"00",   "0000", "0001", "0010",
                                         "0011", "0111", "1100", "000"};
  const std::vector<std::string> paths = {"00", "000", "0001", "0"};
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    PGridPeer* p = peer(0);
    p->SetPath(K("00"));
    p->EvictForeignEntries();
    for (const auto& [k, v] : Flatten(p->storage())) p->EraseLocal(K(k), v);
    ASSERT_EQ(p->StorageSize(), 0u);

    std::vector<StorageEvent> events;
    p->SetStorageListener(
        [&](UpdateOp op, const Key& key, const std::string& value) {
          events.emplace_back(op, key.bits(), value);
        });
    StorageModel model;
    size_t model_size = 0;
    std::mt19937_64 rng(seed);
    auto pick = [&](size_t n) { return size_t(rng() % n); };

    for (int step = 0; step < 3000; ++step) {
      std::vector<StorageEvent> expected;
      const std::string& key = keys[pick(keys.size())];
      std::string value = "v" + std::to_string(pick(12));
      auto& values = model[key];
      auto at = std::find(values.begin(), values.end(), value);
      int roll = int(pick(100));
      if (roll < 50) {
        p->InsertLocal(K(key), value);
        if (at == values.end()) {
          values.push_back(value);
          ++model_size;
          expected.emplace_back(UpdateOp::kInsert, key, value);
        }
      } else if (roll < 95) {
        bool erased = p->EraseLocal(K(key), value);
        ASSERT_EQ(erased, at != values.end()) << "step " << step;
        if (erased) {
          values.erase(at);
          --model_size;
          expected.emplace_back(UpdateOp::kDelete, key, value);
        }
      } else {
        p->SetPath(K(paths[pick(paths.size())]));
        std::vector<std::pair<std::string, std::string>> gone;
        for (auto& [k, vs] : model) {
          if (p->IsResponsibleFor(K(k))) continue;
          for (const auto& v : vs) {
            gone.emplace_back(k, v);
            expected.emplace_back(UpdateOp::kDelete, k, v);
          }
          model_size -= vs.size();
          vs.clear();
        }
        std::vector<std::pair<std::string, std::string>> evicted;
        for (const auto& [k, v] : p->EvictForeignEntries()) {
          evicted.emplace_back(k.bits(), v);
        }
        ASSERT_EQ(evicted, gone) << "step " << step;
      }
      ASSERT_EQ(events, expected) << "step " << step;
      events.clear();
      ASSERT_EQ(p->StorageSize(), model_size) << "step " << step;
      ASSERT_EQ(Flatten(p->storage()), Flatten(model)) << "step " << step;
    }
    p->SetStorageListener(nullptr);
  }
}

// One key holding 20k values (every triple of a predicate lands on one key
// under the order-preserving hash), erased in random order. Neighbouring
// keys stay untouched; a value erased and re-inserted goes to the end of
// its key's range; the storage ends empty.
TEST_F(PGridPeerTest, HotKeyEraseInRandomOrder) {
  PGridPeer* p = peer(0);
  const Key hot = K("0010");
  p->InsertLocal(K("0001"), "before");
  p->InsertLocal(K("0011"), "after");
  constexpr int kValues = 20000;
  std::vector<std::string> values;
  for (int i = 0; i < kValues; ++i) {
    values.push_back("http://example.org/entity/" + std::to_string(i));
    p->InsertLocal(hot, values.back());
  }
  ASSERT_EQ(p->StorageSize(), size_t(kValues) + 2);

  auto hot_range = [&] {
    std::vector<std::string> out;
    auto [lo, hi] = p->storage().equal_range(hot);
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
    return out;
  };
  // The model: values of `hot` in storage order.
  std::vector<std::string> model = values;
  std::vector<std::string> order = values;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(99));
  size_t remaining = kValues;
  for (int i = 0; i < kValues; ++i) {
    ASSERT_TRUE(p->EraseLocal(hot, order[size_t(i)]));
    ASSERT_FALSE(p->EraseLocal(hot, order[size_t(i)]));
    --remaining;
    if (i % 997 == 0) {
      // Erase then re-insert: the value moves to the end of the key's range.
      p->InsertLocal(hot, order[size_t(i)]);
      ++remaining;
      model.erase(std::find(model.begin(), model.end(), order[size_t(i)]));
      model.push_back(order[size_t(i)]);
      ASSERT_EQ(hot_range().back(), order[size_t(i)]);
      ASSERT_TRUE(p->EraseLocal(hot, order[size_t(i)]));
      --remaining;
    }
    ASSERT_EQ(p->StorageSize(), remaining + 2);
    if (i % 2000 == 0) {
      std::vector<std::string> expected;
      std::vector<std::string> erased(order.begin(), order.begin() + i + 1);
      std::sort(erased.begin(), erased.end());
      for (const auto& v : model) {
        if (!std::binary_search(erased.begin(), erased.end(), v)) {
          expected.push_back(v);
        }
      }
      ASSERT_EQ(hot_range(), expected) << "after " << i + 1 << " erases";
    }
  }
  EXPECT_TRUE(hot_range().empty());
  ASSERT_EQ(p->StorageSize(), 2u);
  EXPECT_EQ(p->storage().begin()->second, "before");
  EXPECT_EQ(std::next(p->storage().begin())->second, "after");
  p->InsertLocal(hot, values[0]);
  EXPECT_EQ(hot_range(), std::vector<std::string>{values[0]});
  EXPECT_TRUE(p->EraseLocal(K("0001"), "before"));
  EXPECT_TRUE(p->EraseLocal(K("0011"), "after"));
  EXPECT_TRUE(p->EraseLocal(hot, values[0]));
  EXPECT_EQ(p->StorageSize(), 0u);
}

}  // namespace
}  // namespace gridvine
