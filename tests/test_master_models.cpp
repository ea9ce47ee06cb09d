// Hardware-accelerator model tests: DMA engine, traffic generator and DNN
// accelerator (GoogleNet and AlexNet schedules) driving the memory
// controller directly (no interconnect).
#include <gtest/gtest.h>

#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "ha/traffic_gen.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

struct DirectFixture : ::testing::Test {
  DirectFixture() : link("link"), mem("ddr", link, store, mem_cfg()) {
    link.register_with(sim);
    sim.add(mem);
  }

  static MemoryControllerConfig mem_cfg() {
    MemoryControllerConfig c;
    c.row_hit_latency = 4;
    c.row_miss_latency = 8;
    return c;
  }

  Simulator sim;
  AxiLink link;
  BackingStore store;
  MemoryController mem;
};

TEST_F(DirectFixture, DmaReadWriteJobCompletes) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 4096;
  cfg.burst_beats = 16;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", link, cfg);
  sim.add(dma);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 100000));
  EXPECT_EQ(dma.jobs_completed(), 1u);
  EXPECT_EQ(dma.stats().bytes_read, 4096u);
  EXPECT_EQ(dma.stats().bytes_written, 4096u);
  // 4096 bytes / 128-byte bursts = 32 transactions each way.
  EXPECT_EQ(dma.stats().reads_completed, 32u);
  EXPECT_EQ(dma.stats().writes_completed, 32u);
}

TEST_F(DirectFixture, DmaCopyMovesExactData) {
  // Seed the source region, run a copy job, compare the destination.
  for (Addr a = 0; a < 1024; a += 8) {
    store.write_word(0x1000'0000 + a, 0x5a5a0000 + a);
  }
  DmaConfig cfg;
  cfg.mode = DmaMode::kCopy;
  cfg.bytes_per_job = 1024;
  cfg.burst_beats = 8;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", link, cfg);
  sim.add(dma);
  sim.reset();
  // reset() clears components but not the externally-seeded store; reseed.
  for (Addr a = 0; a < 1024; a += 8) {
    store.write_word(0x1000'0000 + a, 0x5a5a0000 + a);
  }

  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 100000));
  for (Addr a = 0; a < 1024; a += 8) {
    EXPECT_EQ(store.read_word(0x2000'0000 + a), 0x5a5a0000 + a)
        << "offset " << a;
  }
}

TEST_F(DirectFixture, DmaLoopsForeverWithoutMaxJobs) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kRead;
  cfg.bytes_per_job = 512;
  cfg.burst_beats = 16;
  cfg.max_jobs = 0;  // loop
  DmaEngine dma("dma", link, cfg);
  sim.add(dma);
  sim.reset();

  sim.run(20000);
  EXPECT_FALSE(dma.finished());
  EXPECT_GT(dma.jobs_completed(), 2u);
  EXPECT_EQ(dma.job_completion_cycles().size(), dma.jobs_completed());
}

TEST_F(DirectFixture, DmaRespectsOutstandingLimit) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kRead;
  cfg.bytes_per_job = 1u << 20;
  cfg.max_outstanding = 2;
  DmaEngine dma("dma", link, cfg);
  sim.add(dma);
  sim.reset();

  for (int i = 0; i < 2000; ++i) {
    sim.step();
    EXPECT_LE(dma.outstanding_reads(), 2u);
  }
}

TEST_F(DirectFixture, TrafficGeneratorGapThrottlesIssue) {
  TrafficConfig slow;
  slow.direction = TrafficDirection::kRead;
  slow.burst_beats = 4;
  slow.gap_cycles = 50;
  TrafficGenerator gen("gen", link, slow);
  sim.add(gen);
  sim.reset();

  sim.run(1000);
  // With a 50-cycle gap, at most ~1000/50 = 20 transactions can be issued.
  EXPECT_LE(gen.transactions_issued(), 21u);
  EXPECT_GT(gen.transactions_issued(), 10u);
}

TEST_F(DirectFixture, TrafficGeneratorStopsAtMaxTransactions) {
  TrafficConfig cfg;
  cfg.direction = TrafficDirection::kWrite;
  cfg.burst_beats = 4;
  cfg.max_transactions = 5;
  TrafficGenerator gen("gen", link, cfg);
  sim.add(gen);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return gen.finished(); }, 100000));
  EXPECT_EQ(gen.transactions_issued(), 5u);
  EXPECT_EQ(gen.stats().writes_completed, 5u);
}

TEST_F(DirectFixture, TrafficGeneratorMixedAlternates) {
  TrafficConfig cfg;
  cfg.direction = TrafficDirection::kMixed;
  cfg.burst_beats = 4;
  cfg.max_transactions = 10;
  TrafficGenerator gen("gen", link, cfg);
  sim.add(gen);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return gen.finished(); }, 100000));
  EXPECT_EQ(gen.stats().reads_completed, 5u);
  EXPECT_EQ(gen.stats().writes_completed, 5u);
}

TEST_F(DirectFixture, BandwidthStealerPresetUsesMaxBursts) {
  const TrafficConfig cfg = TrafficGenerator::bandwidth_stealer(0x4000'0000);
  EXPECT_EQ(cfg.burst_beats, kMaxAxi4BurstBeats);
  EXPECT_EQ(cfg.gap_cycles, 0u);
}

TEST_F(DirectFixture, DnnCompletesFramesWithCorrectTraffic) {
  DnnConfig cfg;
  cfg.layers = {
      {"l0", 1024, 512, 256, 10'000},
      {"l1", 2048, 256, 128, 5'000},
  };
  cfg.macs_per_cycle = 100;
  cfg.max_frames = 2;
  DnnAccelerator dnn("dnn", link, cfg);
  sim.add(dnn);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return dnn.finished(); }, 1'000'000));
  EXPECT_EQ(dnn.frames_completed(), 2u);
  EXPECT_EQ(dnn.bytes_per_frame(), 1024u + 512 + 256 + 2048 + 256 + 128);
  // Reads: weights + ifmap per frame; writes: ofmap per frame.
  EXPECT_EQ(dnn.stats().bytes_read, 2 * (1024u + 512 + 2048 + 256));
  EXPECT_EQ(dnn.stats().bytes_written, 2 * (256u + 128));
}

TEST_F(DirectFixture, DnnComputePhaseKeepsBusIdle) {
  // One layer with a long compute phase: bus beats must pause during it.
  DnnConfig cfg;
  cfg.layers = {{"l0", 256, 0, 256, 50'000}};
  cfg.macs_per_cycle = 1;  // 50k compute cycles
  cfg.max_frames = 1;
  DnnAccelerator dnn("dnn", link, cfg);
  sim.add(dnn);
  sim.reset();

  // Run long enough for the load phase to finish (256B = 4 bursts of 8).
  sim.run(2000);
  const auto beats_after_load = mem.beats_served();
  sim.run(10000);  // deep inside compute phase
  EXPECT_EQ(mem.beats_served(), beats_after_load)
      << "bus activity during compute phase";
  EXPECT_EQ(dnn.frames_completed(), 0u);
}

TEST_F(DirectFixture, GoogleNetScheduleShape) {
  const auto layers = googlenet_layers();
  ASSERT_GE(layers.size(), 10u);
  std::uint64_t weights = 0;
  std::uint64_t macs = 0;
  for (const auto& l : layers) {
    weights += l.weight_bytes;
    macs += l.macs;
  }
  // Quantized GoogleNet: ~7M parameters, ~1.6 GMAC.
  EXPECT_NEAR(static_cast<double>(weights), 7.0e6, 1.0e6);
  EXPECT_NEAR(static_cast<double>(macs), 1.6e9, 0.3e9);
}

TEST_F(DirectFixture, MasterLatencyHistogramsPopulated) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kRead;
  cfg.bytes_per_job = 512;
  cfg.burst_beats = 8;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", link, cfg);
  sim.add(dma);
  sim.reset();
  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 100000));
  ASSERT_GT(dma.stats().read_latency.count(), 0u);
  // Latency must include memory first-word latency + burst streaming.
  EXPECT_GE(dma.stats().read_latency.min(), 8u);
}

TEST(AlexNet, ScheduleShape) {
  const auto layers = alexnet_layers();
  ASSERT_EQ(layers.size(), 8u);
  std::uint64_t weights = 0;
  std::uint64_t macs = 0;
  for (const auto& l : layers) {
    weights += l.weight_bytes;
    macs += l.macs;
  }
  // ~61M parameters, ~0.72 GMAC.
  EXPECT_NEAR(static_cast<double>(weights), 61e6, 4e6);
  EXPECT_NEAR(static_cast<double>(macs), 0.72e9, 0.1e9);
  // AlexNet is weight-dominated (FC layers), unlike GoogleNet.
  std::uint64_t google_weights = 0;
  for (const auto& l : googlenet_layers()) google_weights += l.weight_bytes;
  EXPECT_GT(weights, 5 * google_weights);
}

TEST(AlexNet, RunsThroughTheStack) {
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, {});
  DnnConfig cfg;
  cfg.layers = alexnet_layers();
  for (auto& l : cfg.layers) {  // scaled for test speed
    l.weight_bytes /= 64;
    l.ifmap_bytes /= 64;
    l.ofmap_bytes /= 64;
    l.macs /= 64;
  }
  cfg.max_frames = 1;
  DnnAccelerator dnn("alexnet", link, cfg);
  link.register_with(sim);
  sim.add(mem);
  sim.add(dnn);
  sim.reset();
  ASSERT_TRUE(sim.run_until([&] { return dnn.finished(); }, 10'000'000));
  EXPECT_EQ(dnn.frames_completed(), 1u);
}

}  // namespace
}  // namespace axihc
