#include "common/page_alloc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>

namespace pod {
namespace {

using Vec = HugeVector<std::uint64_t>;
/// Elements in one huge page: vectors above this size are mmap-backed.
constexpr std::size_t kPage = kHugePageBytes / sizeof(std::uint64_t);

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

Vec iota(std::size_t n) {
  Vec v(n);
  std::iota(v.begin(), v.end(), std::uint64_t{0});
  return v;
}

bool is_iota(const Vec& v, std::size_t n) {
  if (v.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] != i) return false;
  return true;
}

/// AnonHugePages of this process in kB, or -1 when unreadable.
long anon_huge_kb() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) != 0) continue;
    std::istringstream fields(line.substr(14));
    long kb = -1;
    fields >> kb;
    return kb;
  }
  return -1;
}

TEST(HugePageAllocator, LargeAllocationsAre2MiBAligned) {
  if (!kPageBackedAllocation) GTEST_SKIP() << "std::allocator build";
  HugePageAllocator<std::uint8_t> a;
  for (const std::size_t bytes :
       {kHugePageBytes, kHugePageBytes + 1, 3 * kHugePageBytes + 4096}) {
    std::uint8_t* p = a.allocate(bytes);
    EXPECT_TRUE(huge_aligned(p)) << bytes;
    p[0] = 1;  // both ends of the range are mapped
    p[bytes - 1] = 2;
    a.deallocate(p, bytes);
  }
  const Vec v(4 * kPage);
  EXPECT_TRUE(huge_aligned(v.data()));
}

TEST(HugePageAllocator, VectorSurvivesGrowShrinkMoveSwapAssign) {
  Vec v = iota(kPage / 2);  // heap-backed
  for (std::size_t i = kPage / 2; i < 3 * kPage; ++i) v.push_back(i);
  EXPECT_TRUE(is_iota(v, 3 * kPage));  // grew across the boundary

  v.resize(kPage / 4);
  v.shrink_to_fit();  // back below it
  EXPECT_TRUE(is_iota(v, kPage / 4));
  v.resize(2 * kPage);
  std::iota(v.begin(), v.end(), std::uint64_t{0});
  v.shrink_to_fit();  // mapped to mapped
  EXPECT_TRUE(is_iota(v, 2 * kPage));

  Vec moved = std::move(v);
  EXPECT_TRUE(is_iota(moved, 2 * kPage));
  Vec small = iota(10);
  swap(moved, small);
  EXPECT_TRUE(is_iota(moved, 10));
  EXPECT_TRUE(is_iota(small, 2 * kPage));

  moved.assign(3 * kPage, 7);  // small -> mapped
  EXPECT_EQ(moved.size(), 3 * kPage);
  EXPECT_EQ(moved.front(), 7u);
  EXPECT_EQ(moved.back(), 7u);
  small.assign(5, 9);  // reuses the mapped capacity
  EXPECT_EQ(small, Vec(5, 9));
  small = moved;  // copy-assign into a mapped buffer
  EXPECT_EQ(small, moved);
}

TEST(HugePageAllocator, SmallRequestsWork) {
  HugePageAllocator<int> a;
  int* p = a.allocate(3);
  p[0] = 1;
  p[2] = 3;
  a.deallocate(p, 3);
  HugeVector<int> v{1, 2, 3};
  v.push_back(4);
  EXPECT_EQ(v, (HugeVector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(a == HugePageAllocator<int>(HugePageAllocator<char>{}));
}

TEST(HugePageAllocator, TouchingLargeVectorRaisesAnonHugePages) {
  if (!kPageBackedAllocation) GTEST_SKIP() << "std::allocator build";
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  if (mode.find("[always]") == std::string::npos &&
      mode.find("[madvise]") == std::string::npos)
    GTEST_SKIP() << "transparent huge pages off or unreadable: '" << mode << "'";
  const long before = anon_huge_kb();
  if (before < 0) GTEST_SKIP() << "/proc/self/smaps_rollup unreadable";
  const HugeVector<std::uint8_t> v(8 << 20, 1);  // fills every page
  EXPECT_GT(anon_huge_kb(), before);
  EXPECT_EQ(v[v.size() / 2], 1);
}

}  // namespace
}  // namespace pod
