// Trace format, recording (AxiMonitor) and replay (TracePlayer) tests:
// the record-and-replay loop must reproduce the original traffic.
#include <gtest/gtest.h>

#include <sstream>

#include "axi/monitor.hpp"
#include "axi/trace_format.hpp"
#include "ha/dma_engine.hpp"
#include "ha/trace_player.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(TraceFormat, ParsesWellFormedText) {
  const auto entries = parse_trace(
      "# a comment\n"
      "10 R 0x1000 16\n"
      "\n"
      "25 W 0x2000 4   # trailing comment\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].issue_at, 10u);
  EXPECT_FALSE(entries[0].is_write);
  EXPECT_EQ(entries[0].addr, 0x1000u);
  EXPECT_EQ(entries[0].beats, 16u);
  EXPECT_TRUE(entries[1].is_write);
  EXPECT_EQ(entries[1].addr, 0x2000u);
}

TEST(TraceFormat, RejectsMalformedLines) {
  EXPECT_THROW(parse_trace("10 X 0x0 4\n"), ModelError);
  EXPECT_THROW(parse_trace("10 R 0x0 0\n"), ModelError);
  EXPECT_THROW(parse_trace("10 R 0x0 300\n"), ModelError);
  EXPECT_THROW(parse_trace("10 R\n"), ModelError);
}

TEST(TraceFormat, WriteParseRoundTrip) {
  std::vector<TraceEntry> original = {
      {5, false, 0xABC0, 8}, {9, true, 0x1'0000'0000ull, 256}};
  std::ostringstream os;
  write_trace(os, original);
  const auto reparsed = parse_trace(os.str());
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[1].addr, 0x1'0000'0000ull);
  EXPECT_EQ(reparsed[1].beats, 256u);
  EXPECT_TRUE(reparsed[1].is_write);
}

TEST(TracePlayer, RejectsUnsortedTrace) {
  AxiLink link("l");
  EXPECT_THROW(TracePlayer("p", link, {{10, false, 0, 1}, {5, false, 0, 1}}),
               ModelError);
}

TEST(TracePlayer, ReplaysAtRecordedCycles) {
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, {});
  // The player issues at most one request per cycle, so entries carry
  // distinct issue cycles here (coincident entries would count as slip).
  std::vector<TraceEntry> trace = {
      {10, false, 0x100, 4}, {50, true, 0x200, 2}, {51, false, 0x300, 1}};
  TracePlayer player("p", link, trace);
  link.register_with(sim);
  sim.add(mem);
  sim.add(player);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return player.finished(); }, 10000));
  EXPECT_EQ(player.stats().reads_completed, 2u);
  EXPECT_EQ(player.stats().writes_completed, 1u);
  EXPECT_EQ(player.slipped(), 0u);
}

TEST(TracePlayer, RecordAndReplayReproducesTraffic) {
  // Record a DMA's address stream with a monitor on its link, then replay
  // the trace against a fresh memory: same transaction counts, same byte
  // totals.
  std::vector<TraceEntry> trace;
  {
    Simulator sim;
    AxiLink link("l");
    BackingStore store;
    MemoryController mem("ddr", link, store, {});
    AxiMonitor mon("mon", link);
    mon.set_trace_sink(&trace);
    DmaConfig cfg;
    cfg.mode = DmaMode::kReadWrite;
    cfg.bytes_per_job = 2048;
    cfg.burst_beats = 16;
    cfg.max_jobs = 1;
    DmaEngine dma("dma", link, cfg);
    link.register_with(sim);
    sim.add(mem);
    sim.add(mon);
    sim.add(dma);
    sim.reset();
    // The cycle of every AR and AW push, read off the push counters after
    // each advance (the DMA pushes at most one of each per cycle, always in
    // the advance's final, real step). Index 0 is AR, 1 is AW.
    std::vector<Cycle> pushed[2];
    std::vector<Cycle> recorded[2];
    ASSERT_TRUE(sim.run_until(
        [&] {
          for (const bool w : {false, true}) {
            const auto& ch = w ? link.aw : link.ar;
            if (ch.total_pushes() > pushed[w].size()) {
              pushed[w].push_back(sim.now() - 1);
            }
            EXPECT_EQ(ch.total_pushes(), pushed[w].size());
          }
          return dma.finished();
        },
        100000));
    // Each entry carries the cycle the DMA pushed its request in.
    for (const TraceEntry& e : trace) recorded[e.is_write].push_back(e.issue_at);
    EXPECT_EQ(recorded[0], pushed[0]);
    EXPECT_EQ(recorded[1], pushed[1]);
  }
  ASSERT_EQ(trace.size(), 32u);  // 16 reads + 16 writes of 16 beats

  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, {});
  TracePlayer player("p", link, trace);
  link.register_with(sim);
  sim.add(mem);
  sim.add(player);
  sim.reset();
  ASSERT_TRUE(sim.run_until([&] { return player.finished(); }, 100000));
  EXPECT_EQ(player.stats().reads_completed, 16u);
  EXPECT_EQ(player.stats().writes_completed, 16u);
  EXPECT_EQ(player.stats().bytes_read, 2048u);
  EXPECT_EQ(player.stats().bytes_written, 2048u);
}

TEST(TracePlayer, SlipCountsBackpressure) {
  // A trace demanding more than the outstanding limit allows must slip.
  std::vector<TraceEntry> trace;
  for (Cycle c = 0; c < 20; ++c) trace.push_back({c, false, c * 256, 16});
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryControllerConfig slow;
  slow.row_miss_latency = 40;
  slow.row_hit_latency = 30;
  MemoryController mem("ddr", link, store, slow);
  TracePlayer player("p", link, trace, /*max_outstanding=*/2);
  link.register_with(sim);
  sim.add(mem);
  sim.add(player);
  sim.reset();
  ASSERT_TRUE(sim.run_until([&] { return player.finished(); }, 100000));
  EXPECT_GT(player.slipped(), 0u);
}

}  // namespace
}  // namespace axihc
