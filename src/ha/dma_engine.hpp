// Model of a high-throughput DMA engine (Xilinx AXI DMA / AXI CDMA class).
//
// The paper uses two AXI DMAs as representative HAs (§VI-B) because "they can
// mimic the behavior on the bus of many HAs and are capable of saturating the
// maximum memory bandwidth". This model issues back-to-back bursts with the
// configured burst length and outstanding depth, which saturates the modelled
// memory controller the same way.
//
// Modes:
//  * kRead      — stream `bytes_per_job` of reads (MM2S half);
//  * kWrite     — stream `bytes_per_job` of writes (S2MM half);
//  * kReadWrite — both streams concurrently and independently, as in the
//                 paper's HA_DMA case study (read 4 MB and write back 4 MB);
//  * kCopy      — a true memcpy: write data is the data previously read
//                 (verifiable end-to-end through the backing store).
#pragma once

#include <cstdint>
#include <vector>

#include "ha/master_base.hpp"

namespace axihc {

enum class DmaMode { kRead, kWrite, kReadWrite, kCopy };

struct DmaConfig {
  DmaMode mode = DmaMode::kReadWrite;
  Addr read_base = 0x1000'0000;
  Addr write_base = 0x2000'0000;
  /// Bytes moved per job in each active direction.
  std::uint64_t bytes_per_job = 4ull << 20;  // the paper's 4 MB
  BeatCount burst_beats = 16;                // the paper's 16-word bursts
  std::uint32_t max_outstanding = 8;
  /// 0 = loop forever; otherwise stop after this many completed jobs.
  std::uint64_t max_jobs = 0;
  /// Accept out-of-order completion (future-work platforms, §V-A).
  bool tolerate_out_of_order = false;
};

class DmaEngine final : public AxiMasterBase {
 public:
  DmaEngine(std::string name, AxiLink& link, DmaConfig cfg = {});

  void tick(Cycle now) override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  /// Completed jobs (one job = all programmed bytes moved, both directions).
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_done_; }

  /// Cycle at which each job completed (for rate measurements).
  [[nodiscard]] const std::vector<Cycle>& job_completion_cycles() const {
    return job_done_cycles_;
  }

  [[nodiscard]] const DmaConfig& config() const { return cfg_; }

  /// True once max_jobs were completed (never true when looping forever).
  [[nodiscard]] bool finished() const {
    return cfg_.max_jobs != 0 && jobs_done_ >= cfg_.max_jobs;
  }

  /// Base metrics plus the job counter.
  void register_metrics(MetricsRegistry& reg) override;

  void append_digest(StateDigest& d) const override;

 private:
  void on_read_beat(const RBeat& beat, Cycle now) override;
  void on_read_complete(const AddrReq& req, Cycle now) override;
  void on_write_complete(const AddrReq& req, Cycle now) override;
  void reset_master() override;

  [[nodiscard]] bool read_stream_active() const;
  [[nodiscard]] bool write_stream_active() const;
  void maybe_finish_job(Cycle now);

  DmaConfig cfg_;
  std::uint64_t read_issued_bytes_ = 0;
  std::uint64_t read_done_bytes_ = 0;
  std::uint64_t write_issued_bytes_ = 0;
  std::uint64_t write_done_bytes_ = 0;
  std::uint64_t jobs_done_ = 0;
  bool job_slice_open_ = false;  // a "job" duration slice is begun on trace_
  std::vector<Cycle> job_done_cycles_;
  /// kCopy: data read but not yet written back.
  std::vector<std::uint64_t> copy_buffer_;
};

}  // namespace axihc
