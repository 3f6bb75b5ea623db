#ifndef GVBENCH_REFERENCE_H_
#define GVBENCH_REFERENCE_H_

// The central reference: every triple the benchmark has loaded (and not yet
// removed), held outside the deployment in plain maps, with its own LIKE
// matcher. Distributed answers are checked against it; it shares no code
// with the store or query layers it checks.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/triple.h"

namespace gvbench {

/// SQL LIKE restricted to the '%' wildcard (any run of characters), as the
/// query language defines it. Independent of the program's matcher.
inline bool RefLike(std::string_view v, std::string_view p) {
  while (!p.empty() && p[0] != '%') {
    if (v.empty() || v[0] != p[0]) return false;
    v.remove_prefix(1);
    p.remove_prefix(1);
  }
  if (p.empty()) return v.empty();
  p.remove_prefix(1);  // the '%'
  for (size_t i = 0; i <= v.size(); ++i) {
    if (RefLike(v.substr(i), p)) return true;
  }
  return false;
}

/// First word of a literal: the fragment a query constrains with %frag%
/// (the shape of BioWorkload::MakeQuery).
inline std::string FirstWord(const std::string& value) {
  return value.substr(0, value.find(' '));
}

class Reference {
 public:
  /// Subject URI -> dense id (created on first sight).
  uint32_t Intern(const std::string& subject) {
    return ids_.emplace(subject, uint32_t(ids_.size())).first->second;
  }
  /// Dense id of a subject URI, or -1 when the reference never saw it.
  int64_t Find(const std::string& subject) const {
    auto it = ids_.find(subject);
    return it == ids_.end() ? -1 : int64_t(it->second);
  }

  void Insert(const gridvine::Triple& t) {
    auto& rows = by_pred_[t.predicate().value()];
    uint32_t s = Intern(t.subject().value());
    for (const auto& [rs, ro] : rows) {
      if (rs == s && ro == t.object().value()) return;
    }
    rows.emplace_back(s, t.object().value());
  }
  void Erase(const gridvine::Triple& t) {
    auto it = by_pred_.find(t.predicate().value());
    if (it == by_pred_.end()) return;
    int64_t s = Find(t.subject().value());
    auto& rows = it->second;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (int64_t(rows[i].first) == s && rows[i].second == t.object().value()) {
        rows[i] = std::move(rows.back());
        rows.pop_back();
        return;
      }
    }
  }

  /// Sorted distinct subjects s with (s, predicate, o) and o LIKE pattern.
  std::vector<uint32_t> Match(const std::string& predicate,
                              const std::string& pattern) const {
    std::vector<uint32_t> out;
    auto it = by_pred_.find(predicate);
    if (it == by_pred_.end()) return out;
    for (const auto& [s, o] : it->second) {
      if (RefLike(o, pattern)) out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Every (subject, object) row of a predicate.
  const std::vector<std::pair<uint32_t, std::string>>& Rows(
      const std::string& predicate) const {
    static const std::vector<std::pair<uint32_t, std::string>> kEmpty;
    auto it = by_pred_.find(predicate);
    return it == by_pred_.end() ? kEmpty : it->second;
  }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::unordered_map<std::string, std::vector<std::pair<uint32_t, std::string>>>
      by_pred_;
};

inline bool SortedContains(const std::vector<uint32_t>& v, uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace gvbench

#endif  // GVBENCH_REFERENCE_H_
