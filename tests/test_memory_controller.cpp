// Memory controller model tests: in-order service, latency accounting,
// row-buffer behaviour, and functional read/write correctness.
#include "mem/memory_controller.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace axihc {
namespace {

struct MemFixture : ::testing::Test {
  MemFixture() : link("fpga_ps"), mem("ddr", link, store, cfg()) {
    link.register_with(sim);
    sim.add(mem);
    sim.reset();
  }

  static MemoryControllerConfig cfg() {
    MemoryControllerConfig c;
    c.row_hit_latency = 4;
    c.row_miss_latency = 10;
    c.turnaround = 1;
    return c;
  }

  AddrReq read_req(Addr addr, BeatCount beats, TxnId id = 1) {
    AddrReq r;
    r.id = id;
    r.addr = addr;
    r.beats = beats;
    return r;
  }

  /// Runs until `n` R beats were collected (with a safety timeout).
  std::vector<RBeat> collect_r(std::size_t n, Cycle max_cycles = 10000) {
    std::vector<RBeat> beats;
    sim.run_until(
        [&] {
          while (link.r.can_pop()) beats.push_back(link.r.pop());
          return beats.size() >= n;
        },
        max_cycles);
    return beats;
  }

  Simulator sim;
  AxiLink link;
  BackingStore store;
  MemoryController mem;
};

TEST_F(MemFixture, ReadReturnsStoredData) {
  store.write_word(0x100, 0xdead);
  store.write_word(0x108, 0xbeef);
  link.ar.push(read_req(0x100, 2));
  const auto beats = collect_r(2);
  ASSERT_EQ(beats.size(), 2u);
  EXPECT_EQ(beats[0].data, 0xdeadu);
  EXPECT_FALSE(beats[0].last);
  EXPECT_EQ(beats[1].data, 0xbeefu);
  EXPECT_TRUE(beats[1].last);
}

TEST_F(MemFixture, UnwrittenMemoryReadsZero) {
  link.ar.push(read_req(0x5000, 1));
  const auto beats = collect_r(1);
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].data, 0u);
}

TEST_F(MemFixture, WriteThenReadRoundTrip) {
  AddrReq aw;
  aw.id = 9;
  aw.addr = 0x200;
  aw.beats = 2;
  link.aw.push(aw);
  link.w.push({111, 0xff, false});
  link.w.push({222, 0xff, true});

  sim.run_until([&] { return link.b.can_pop(); }, 1000);
  ASSERT_TRUE(link.b.can_pop());
  EXPECT_EQ(link.b.pop().id, 9u);
  EXPECT_EQ(store.read_word(0x200), 111u);
  EXPECT_EQ(store.read_word(0x208), 222u);
}

TEST_F(MemFixture, ByteStrobesMaskWrites) {
  store.write_word(0x300, 0x1122334455667788ull);
  AddrReq aw;
  aw.addr = 0x300;
  aw.beats = 1;
  link.aw.push(aw);
  link.w.push({0xAAAAAAAAAAAAAAAAull, 0x0F, true});  // low 4 bytes only
  sim.run_until([&] { return link.b.can_pop(); }, 1000);
  EXPECT_EQ(store.read_word(0x300), 0x11223344AAAAAAAAull);
}

TEST_F(MemFixture, InOrderServiceAcrossReadAndWrite) {
  // A read queued before a write completes first even though the write's
  // data is already available (no out-of-order completion, §V-A).
  store.write_word(0x400, 7);
  link.ar.push(read_req(0x400, 1, 1));
  sim.step();  // read enters the queue first
  AddrReq aw;
  aw.id = 2;
  aw.addr = 0x500;
  aw.beats = 1;
  link.aw.push(aw);
  link.w.push({55, 0xff, true});

  Cycle read_done = 0;
  Cycle write_done = 0;
  sim.run_until(
      [&] {
        if (link.r.can_pop() && read_done == 0) {
          link.r.pop();
          read_done = sim.now();
        }
        if (link.b.can_pop() && write_done == 0) {
          link.b.pop();
          write_done = sim.now();
        }
        return read_done != 0 && write_done != 0;
      },
      1000);
  EXPECT_LT(read_done, write_done);
}

TEST_F(MemFixture, RowHitFasterThanRowMiss) {
  // First access to a row: miss. Second access to the same row: hit.
  link.ar.push(read_req(0x1000, 1, 1));
  const Cycle start1 = sim.now();
  collect_r(1);
  const Cycle t1 = sim.now() - start1;

  link.ar.push(read_req(0x1008, 1, 2));  // same 2KiB row
  const Cycle start2 = sim.now();
  collect_r(1);
  const Cycle t2 = sim.now() - start2;

  EXPECT_GT(t1, t2);
  EXPECT_EQ(mem.row_hits(), 1u);
  EXPECT_EQ(mem.row_misses(), 1u);
}

TEST_F(MemFixture, StreamsOneBeatPerCycle) {
  link.ar.push(read_req(0x2000, 16));
  std::vector<Cycle> arrivals;
  sim.run_until(
      [&] {
        while (link.r.can_pop()) {
          link.r.pop();
          arrivals.push_back(sim.now());
        }
        return arrivals.size() >= 16;
      },
      1000);
  ASSERT_EQ(arrivals.size(), 16u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], 1u) << "beat " << i;
  }
}

TEST_F(MemFixture, CountsServedWork) {
  link.ar.push(read_req(0x0, 4));
  collect_r(4);
  AddrReq aw;
  aw.addr = 0x100;
  aw.beats = 2;
  link.aw.push(aw);
  link.w.push({1, 0xff, false});
  link.w.push({2, 0xff, true});
  sim.run_until([&] { return link.b.can_pop(); }, 1000);

  EXPECT_EQ(mem.reads_served(), 1u);
  EXPECT_EQ(mem.writes_served(), 1u);
  EXPECT_EQ(mem.beats_served(), 6u);
}

// The last-page slot caches misses as well as hits: a write to the page a
// read just missed, and to a page a read missed before another read hit,
// must still land and be read back.
TEST(BackingStore, ReadMissThenWriteThenRead) {
  BackingStore store;
  EXPECT_EQ(store.read_word(0x1000), 0u);  // miss, now cached
  EXPECT_EQ(store.read_word(0x1008), 0u);  // same page, cached miss
  store.write_word(0x1008, 0xabcd);
  EXPECT_EQ(store.read_word(0x1008), 0xabcdu);
  EXPECT_EQ(store.read_word(0x1000), 0u);

  EXPECT_EQ(store.read_word(0x9000), 0u);  // miss on a second page
  EXPECT_EQ(store.read_word(0x1008), 0xabcdu);  // hit moves the slot back
  store.write_word(0x9010, 0x1234, 0x0f);
  EXPECT_EQ(store.read_word(0x9010), 0x1234u);
  EXPECT_EQ(store.read_word(0x1008), 0xabcdu);

  store.clear();
  EXPECT_EQ(store.read_word(0x1008), 0u);
  store.write_word(0x1008, 7);
  EXPECT_EQ(store.read_word(0x1008), 7u);
}

}  // namespace
}  // namespace axihc
