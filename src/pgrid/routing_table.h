#ifndef GRIDVINE_PGRID_ROUTING_TABLE_H_
#define GRIDVINE_PGRID_ROUTING_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/key.h"
#include "common/rng.h"
#include "sim/network.h"

namespace gridvine {

/// Read-only view over one level's references (or the replica set): a
/// pointer + length into the table's contiguous slot array. Iterable and
/// indexable like the std::vector it replaced; invalidated by any mutation
/// of the table, so don't hold one across AddRef/RemoveRef/SetPath.
class RefSpan {
 public:
  using value_type = NodeId;

  RefSpan() = default;
  RefSpan(const NodeId* data, size_t size) : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  const NodeId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](size_t i) const { return data_[i]; }

 private:
  const NodeId* data_ = nullptr;
  size_t size_ = 0;
};

/// A P-Grid peer's routing state: for each level l of its path π(p), a set of
/// references to peers whose paths share the first l bits of π(p) and differ
/// at bit l (the "complementary subtree" at that level), plus the replica set
/// σ(p) of peers with the same path.
///
/// The level-wise invariant is exactly what makes greedy prefix routing
/// resolve any key in at most |π(p)| forwards.
///
/// Layout: one contiguous NodeId array of `levels * max_refs_per_level`
/// fixed-width blocks plus a byte of occupancy per level — two heap
/// allocations per peer total (vs. one vector header + one heap block per
/// level before). At 4 refs/level a 20-level table is 320 B of ids + 20
/// count bytes, and a simulation holding a million of these keeps them in
/// ~400 MB instead of several GB of malloc'd node fragments. The level cap
/// is bounded at 255 so counts fit a byte.
class RoutingTable {
 public:
  /// `max_refs_per_level` caps fan-out; additional refs are ignored. More
  /// refs give routing more alternatives under churn at modest memory cost.
  explicit RoutingTable(int max_refs_per_level = 4)
      : max_refs_per_level_(
            max_refs_per_level < 1
                ? 1
                : (max_refs_per_level > 255 ? 255 : max_refs_per_level)) {}

  /// Sets the owning peer's path; resizes the level structure and drops refs
  /// that became inconsistent with the new path (those at levels >= length
  /// never existed; levels shorten only during re-balancing).
  void SetPath(const Key& path);
  const Key& path() const { return path_; }

  /// Adds a reference at `level` (0-based bit index into the path); ignored
  /// when the level is out of range, the table is full at that level, or the
  /// ref is a duplicate. Returns true if stored.
  bool AddRef(int level, NodeId id);

  /// Removes a reference wherever it appears (e.g. observed dead).
  void RemoveRef(NodeId id);

  /// Drops every reference and replica link (used when the peer's region is
  /// reassigned wholesale and existing links no longer satisfy the
  /// complementary-subtree invariant).
  void ClearLinks();

  /// View of level `level`'s refs (empty for out-of-range levels).
  /// Invalidated by any table mutation.
  RefSpan RefsAt(int level) const;

  /// Picks the next hop for `key`: the divergence level l of `key` against
  /// π(p) selects the ref list; a uniformly random entry is returned (random
  /// choice spreads load over alternatives and lets retries explore different
  /// paths under churn). Excludes `exclude` if other options exist.
  /// Returns nullopt when the key belongs to this peer's subtree or no ref
  /// is known at the divergence level. Allocation-free. Templated over the
  /// generator so callers holding a big Rng and peers holding a CompactRng
  /// share one implementation (both draw exactly once).
  template <typename RngT>
  std::optional<NodeId> NextHop(const Key& key, RngT* rng,
                                NodeId exclude = kInvalidNode) const {
    int l = DivergenceLevel(key);
    if (l >= path_.length()) return std::nullopt;  // our subtree: local
    const NodeId* block = LevelBlock(l);
    const uint8_t count = counts_[static_cast<size_t>(l)];
    if (count == 0) return std::nullopt;
    // Prefer an alternative to `exclude` when one exists. Selection draws one
    // uniform index over the candidate count and scans to it — the same
    // single Rng draw (hence the same picks, seed for seed) as the old
    // build-a-candidate-vector-and-PickOne, without the allocation.
    uint8_t eligible = 0;
    for (uint8_t i = 0; i < count; ++i) {
      if (block[i] != exclude) ++eligible;
    }
    const bool filtered = eligible > 0;
    const uint8_t n = filtered ? eligible : count;
    auto pick = static_cast<uint8_t>(rng->UniformInt(0, int64_t(n) - 1));
    for (uint8_t i = 0, seen = 0; i < count; ++i) {
      if (filtered && block[i] == exclude) continue;
      if (seen++ == pick) return block[i];
    }
    return block[count - 1];  // unreachable
  }

  /// NextHop with a *set* of hops to avoid — the per-flight failover variant:
  /// a retry should not re-try ANY first hop that already timed out for this
  /// request, not just the latest one. Preference order: refs outside the
  /// whole tried set; else refs other than the most recent tried hop; else
  /// any ref. Exactly one rng draw in every path, and with |tried| <= 1 the
  /// candidate filtering (and hence the draw, seed for seed) is identical to
  /// single-exclude NextHop.
  template <typename RngT>
  std::optional<NodeId> NextHopAvoiding(const Key& key, RngT* rng,
                                        const NodeId* tried,
                                        size_t tried_count) const {
    int l = DivergenceLevel(key);
    if (l >= path_.length()) return std::nullopt;
    const NodeId* block = LevelBlock(l);
    const uint8_t count = counts_[static_cast<size_t>(l)];
    if (count == 0) return std::nullopt;
    auto in_tried = [&](NodeId id, size_t upto) {
      for (size_t t = 0; t < upto; ++t) {
        if (tried[t] == id) return true;
      }
      return false;
    };
    uint8_t eligible = 0;
    for (uint8_t i = 0; i < count; ++i) {
      if (!in_tried(block[i], tried_count)) ++eligible;
    }
    // Fallback ladder when every ref was already tried: avoid at least the
    // most recent attempt (the HEAD behaviour), then give up on filtering.
    const NodeId last =
        tried_count > 0 ? tried[tried_count - 1] : kInvalidNode;
    enum class Filter { kAll, kLastOnly, kNone } mode = Filter::kAll;
    if (eligible == 0) {
      mode = Filter::kLastOnly;
      eligible = 0;
      for (uint8_t i = 0; i < count; ++i) {
        if (block[i] != last) ++eligible;
      }
      if (eligible == 0) {
        mode = Filter::kNone;
        eligible = count;
      }
    }
    auto pick = static_cast<uint8_t>(rng->UniformInt(0, int64_t(eligible) - 1));
    for (uint8_t i = 0, seen = 0; i < count; ++i) {
      if (mode == Filter::kAll && in_tried(block[i], tried_count)) continue;
      if (mode == Filter::kLastOnly && block[i] == last) continue;
      if (seen++ == pick) return block[i];
    }
    return block[count - 1];  // unreachable
  }

  /// Divergence level of `key` against the path, or path length if the key
  /// lies in this peer's subtree.
  int DivergenceLevel(const Key& key) const;

  void AddReplica(NodeId id);
  void RemoveReplica(NodeId id);
  const std::vector<NodeId>& replicas() const { return replicas_; }

  int levels() const { return static_cast<int>(counts_.size()); }
  int max_refs_per_level() const { return max_refs_per_level_; }

  /// Total number of stored references across levels.
  size_t TotalRefs() const;

  /// Bytes of heap behind this table (slot array, counts, replicas, path),
  /// by capacity.
  size_t MemoryFootprint() const;

 private:
  NodeId* LevelBlock(int level) {
    return slots_.data() + size_t(level) * size_t(max_refs_per_level_);
  }
  const NodeId* LevelBlock(int level) const {
    return slots_.data() + size_t(level) * size_t(max_refs_per_level_);
  }

  int max_refs_per_level_;
  Key path_;
  /// Fixed-width blocks, one per level: slots_[l*cap .. l*cap+counts_[l]).
  std::vector<NodeId> slots_;
  std::vector<uint8_t> counts_;
  std::vector<NodeId> replicas_;
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_ROUTING_TABLE_H_
