#include "ha/dma_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

namespace {
/// Beats needed for `bytes` at the 64-bit bus width, capped to the burst.
BeatCount beats_for(std::uint64_t remaining_bytes, BeatCount burst_beats) {
  const std::uint64_t beats = (remaining_bytes + 7) / 8;
  return static_cast<BeatCount>(
      std::min<std::uint64_t>(beats, burst_beats));
}
}  // namespace

DmaEngine::DmaEngine(std::string name, AxiLink& link, DmaConfig cfg)
    : AxiMasterBase(std::move(name), link, cfg.max_outstanding,
                    cfg.max_outstanding, cfg.tolerate_out_of_order),
      cfg_(cfg) {
  AXIHC_CHECK(cfg_.bytes_per_job > 0);
  AXIHC_CHECK(cfg_.burst_beats >= 1 && cfg_.burst_beats <= kMaxAxi4BurstBeats);
}

void DmaEngine::reset_master() {
  read_issued_bytes_ = read_done_bytes_ = 0;
  write_issued_bytes_ = write_done_bytes_ = 0;
  jobs_done_ = 0;
  job_slice_open_ = false;
  job_done_cycles_.clear();
  copy_buffer_.clear();
}

void DmaEngine::append_digest(StateDigest& d) const {
  AxiMasterBase::append_digest(d);
  d.mix(jobs_done_);
  d.mix(read_issued_bytes_);
  d.mix(read_done_bytes_);
  d.mix(write_issued_bytes_);
  d.mix(write_done_bytes_);
  d.mix(std::uint64_t{1});  // a retired always-true flag; keeps pinned digests
  for (Cycle c : job_done_cycles_) d.mix(static_cast<std::uint64_t>(c));
}

void DmaEngine::register_metrics(MetricsRegistry& reg) {
  AxiMasterBase::register_metrics(reg);
  reg.add_counter(name() + ".jobs_done", &jobs_done_);
}

bool DmaEngine::read_stream_active() const {
  return cfg_.mode != DmaMode::kWrite;
}

bool DmaEngine::write_stream_active() const {
  return cfg_.mode != DmaMode::kRead;
}

void DmaEngine::tick(Cycle now) {
  if (!finished()) {
    if (!job_slice_open_ && tracing()) {
      trace()->record_begin(now, name(), "job");
      job_slice_open_ = true;
    }
    // Issue read bursts back-to-back until the job's read half is fully
    // requested.
    if (read_stream_active() && read_issued_bytes_ < cfg_.bytes_per_job &&
        can_issue_read()) {
      const BeatCount beats =
          beats_for(cfg_.bytes_per_job - read_issued_bytes_, cfg_.burst_beats);
      issue_read(cfg_.read_base + read_issued_bytes_, beats, now);
      read_issued_bytes_ += std::uint64_t{beats} * kBusBytes;
    }

    // Issue write bursts. In kCopy mode data must come from completed reads;
    // in the independent modes it is a synthetic fill pattern.
    if (write_stream_active() && write_issued_bytes_ < cfg_.bytes_per_job &&
        can_issue_write()) {
      const BeatCount beats = beats_for(
          cfg_.bytes_per_job - write_issued_bytes_, cfg_.burst_beats);
      if (cfg_.mode == DmaMode::kCopy) {
        if (copy_buffer_.size() >= beats) {
          std::vector<std::uint64_t> data(copy_buffer_.begin(),
                                          copy_buffer_.begin() + beats);
          copy_buffer_.erase(copy_buffer_.begin(),
                             copy_buffer_.begin() + beats);
          issue_write_data(cfg_.write_base + write_issued_bytes_, data, now);
          write_issued_bytes_ += std::uint64_t{beats} * kBusBytes;
        }
      } else {
        issue_write(cfg_.write_base + write_issued_bytes_, beats, now,
                    /*fill_seed=*/write_issued_bytes_);
        write_issued_bytes_ += std::uint64_t{beats} * kBusBytes;
      }
    }
  }

  pump(now);
}

Cycle DmaEngine::next_activity(Cycle now) const {
  if (!pump_idle()) return now;
  if (!finished()) {
    if (tracing() && !job_slice_open_) return now;  // job slice opens next tick
    if (read_stream_active() && read_issued_bytes_ < cfg_.bytes_per_job &&
        can_issue_read()) {
      return now;
    }
    if (write_stream_active() && write_issued_bytes_ < cfg_.bytes_per_job &&
        can_issue_write()) {
      if (cfg_.mode != DmaMode::kCopy) return now;
      const BeatCount beats = beats_for(
          cfg_.bytes_per_job - write_issued_bytes_, cfg_.burst_beats);
      if (copy_buffer_.size() >= beats) return now;
    }
  }
  // Blocked on backpressure or on responses: only another component's
  // progress (a channel refilling/draining) can change that.
  return kNoCycle;
}

void DmaEngine::on_read_beat(const RBeat& beat, Cycle) {
  if (cfg_.mode == DmaMode::kCopy) copy_buffer_.push_back(beat.data);
}

void DmaEngine::on_read_complete(const AddrReq& req, Cycle now) {
  read_done_bytes_ += burst_bytes(req);
  maybe_finish_job(now);
}

void DmaEngine::on_write_complete(const AddrReq& req, Cycle now) {
  write_done_bytes_ += burst_bytes(req);
  maybe_finish_job(now);
}

void DmaEngine::maybe_finish_job(Cycle now) {
  const bool reads_done =
      !read_stream_active() || read_done_bytes_ >= cfg_.bytes_per_job;
  const bool writes_done =
      !write_stream_active() || write_done_bytes_ >= cfg_.bytes_per_job;
  if (!reads_done || !writes_done) return;

  ++jobs_done_;
  job_done_cycles_.push_back(now);
  if (job_slice_open_) {
    if (tracing()) trace()->record_end(now, name(), "job");
    job_slice_open_ = false;
  }
  if (finished()) return;

  // Re-arm for the next job (continuous operation).
  read_issued_bytes_ = read_done_bytes_ = 0;
  write_issued_bytes_ = write_done_bytes_ = 0;
}

}  // namespace axihc
