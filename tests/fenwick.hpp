// fenwick.hpp — a Fenwick (binary indexed) tree over 0/1 membership bits.
//
// A test oracle: it answers the queries of the simulator's enabled-step
// index ("how many items are in the set", "which is the k-th smallest
// member") in O(log n) each, so the RankSet differential test in
// test_sealed_dispatch.cpp checks common/rankset.hpp against it.
#ifndef SNAPSTAB_TESTS_FENWICK_HPP
#define SNAPSTAB_TESTS_FENWICK_HPP

#include <vector>

#include "common/check.hpp"

namespace snapstab {

class FenwickSet {
 public:
  FenwickSet() = default;

  // Resets to the empty set over the universe {0, .., universe-1}.
  void reset(int universe) {
    n_ = universe;
    log_ = 0;
    while ((1 << (log_ + 1)) <= n_) ++log_;
    tree_.assign(static_cast<std::size_t>(n_) + 1, 0);
    count_ = 0;
  }

  int universe() const noexcept { return n_; }
  int count() const noexcept { return count_; }

  // Adds `delta` (+1 insert, -1 erase) at item i. The caller tracks
  // membership; double inserts would corrupt the counts.
  void add(int i, int delta) {
    SNAPSTAB_CHECK(i >= 0 && i < n_);
    count_ += delta;
    for (int j = i + 1; j <= n_; j += j & -j)
      tree_[static_cast<std::size_t>(j)] += delta;
  }

  // The k-th smallest member, k in [0, count()).
  //
  // The descent is branchless: each level's take/skip decision depends on
  // the (effectively random) rank k, so a conditional branch mispredicts
  // about half the time — several mispredicts per lookup on the simulator's
  // hottest path (measured ~3.5x slower than this form). The decisions are
  // folded into all-ones/all-zero masks, which compilers cannot turn back
  // into branches (they re-branch ternaries); out-of-range probes read the
  // always-present, always-zero root slot 0 instead of branching around
  // the load.
  int kth(int k) const {
    SNAPSTAB_CHECK(k >= 0 && k < count_);
    int pos = 0;
    int rem = k + 1;
    for (int pw = 1 << log_; pw > 0; pw >>= 1) {
      const int npos = pos + pw;
      const int guard = -static_cast<int>(npos <= n_);  // ~0 in range, else 0
      const int v = tree_[static_cast<std::size_t>(npos & guard)];
      const int take = guard & -static_cast<int>(v < rem);
      pos += pw & take;
      rem -= v & take;
    }
    return pos;  // 1-based tree: item index is `pos` in 0-based terms
  }

 private:
  int n_ = 0;
  int log_ = 0;
  int count_ = 0;
  std::vector<int> tree_;
};

}  // namespace snapstab

#endif  // SNAPSTAB_TESTS_FENWICK_HPP
