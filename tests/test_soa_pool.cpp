// Hot-state pool handles (sim/soa_pool.hpp): PooledWords/PooledCycle
// adoption semantics.
#include <gtest/gtest.h>

#include <vector>

#include "sim/soa_pool.hpp"

namespace axihc {
namespace {

TEST(PooledWords, InlineThenAdoptedKeepsValuesAndWrites) {
  HotStatePool pool;
  PooledWords w(std::vector<std::uint32_t>{10, 20, 30});
  EXPECT_EQ(w.size(), 3u);
  w[1] = 21;  // pre-adoption write goes to inline storage
  w.adopt(pool, nullptr, "test_words");
  EXPECT_EQ(w.get(0), 10u);
  EXPECT_EQ(w.get(1), 21u);
  EXPECT_EQ(w.get(2), 30u);
  w[2] = 31;  // post-adoption write goes to the pool slot
  EXPECT_EQ(w.get(2), 31u);
  w = std::vector<std::uint32_t>{1, 2, 3};  // same-size assign, post-adopt
  EXPECT_EQ(w.get(0), 1u);
  ASSERT_EQ(pool.slots().size(), 1u);
  EXPECT_EQ(pool.slots()[0].what, "test_words");
  EXPECT_EQ(pool.slots()[0].words, 3u);
}

TEST(PooledWords, HandlesSurviveLaterAllocations) {
  HotStatePool pool;
  PooledWords first(std::vector<std::uint32_t>{7});
  first.adopt(pool, nullptr, "first");
  const std::uint32_t* before = first.begin();
  for (int i = 0; i < 64; ++i) {
    PooledWords extra(std::vector<std::uint32_t>(17, 0));
    extra.adopt(pool, nullptr, "extra");
  }
  EXPECT_EQ(first.begin(), before);  // per-slot blocks: no relocation
  EXPECT_EQ(first.get(0), 7u);
}

TEST(PooledCycle, AdoptPreservesValue) {
  HotStatePool pool;
  PooledCycle c(42);
  EXPECT_EQ(c.get(), 42u);
  c.adopt(pool, nullptr, "deadline");
  EXPECT_EQ(c.get(), 42u);
  c.set(99);
  EXPECT_EQ(c.get(), 99u);
}

}  // namespace
}  // namespace axihc
