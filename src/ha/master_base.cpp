#include "ha/master_base.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

AxiMasterBase::AxiMasterBase(std::string name, AxiLink& link,
                             std::uint32_t max_outstanding_reads,
                             std::uint32_t max_outstanding_writes,
                             bool allow_out_of_order)
    : Component(std::move(name)),
      link_(link),
      max_or_(max_outstanding_reads),
      max_ow_(max_outstanding_writes),
      allow_ooo_(allow_out_of_order) {
  AXIHC_CHECK(max_or_ > 0);
  AXIHC_CHECK(max_ow_ > 0);
}

void AxiMasterBase::append_digest(StateDigest& d) const {
  d.mix(stats_.reads_issued);
  d.mix(stats_.reads_completed);
  d.mix(stats_.writes_issued);
  d.mix(stats_.writes_completed);
  d.mix(stats_.bytes_read);
  d.mix(stats_.bytes_written);
  d.mix(stats_.reads_failed);
  d.mix(stats_.writes_failed);
  d.mix(stats_.stray_r_beats);
  d.mix(stats_.stray_b_resps);
  // Histograms fold as their exact summary (count/sum/min/max): cheaper
  // than mixing 1920 buckets and still sensitive to any latency change.
  const auto mix_hist = [&d](const LogHistogram& h) {
    d.mix(static_cast<std::uint64_t>(h.count()));
    d.mix(h.sum());
    d.mix(h.count() != 0 ? static_cast<std::uint64_t>(h.min()) : 0);
    d.mix(h.count() != 0 ? static_cast<std::uint64_t>(h.max()) : 0);
  };
  mix_hist(stats_.read_latency);
  mix_hist(stats_.write_latency);
  d.mix(static_cast<std::uint64_t>(next_id_));
  d.mix(static_cast<std::uint64_t>(reads_in_flight_.size()));
  for (const auto& f : reads_in_flight_) d.mix(f.beats_left);
  d.mix(static_cast<std::uint64_t>(writes_in_flight_.size()));
  d.mix(static_cast<std::uint64_t>(w_backlog_.size()));
}

void AxiMasterBase::register_metrics(MetricsRegistry& reg) {
  reg.add_counter(name() + ".reads_issued", &stats_.reads_issued);
  reg.add_counter(name() + ".reads_completed", &stats_.reads_completed);
  reg.add_counter(name() + ".writes_issued", &stats_.writes_issued);
  reg.add_counter(name() + ".writes_completed", &stats_.writes_completed);
  reg.add_counter(name() + ".bytes_read", &stats_.bytes_read);
  reg.add_counter(name() + ".bytes_written", &stats_.bytes_written);
  reg.add_counter(name() + ".reads_failed", &stats_.reads_failed);
  reg.add_counter(name() + ".writes_failed", &stats_.writes_failed);
  reg.add_counter(name() + ".stray_r_beats", &stats_.stray_r_beats);
  reg.add_counter(name() + ".stray_b_resps", &stats_.stray_b_resps);
  reg.add_gauge(name() + ".reads_outstanding", [this] {
    return static_cast<double>(reads_in_flight_.size());
  });
  reg.add_gauge(name() + ".writes_outstanding", [this] {
    return static_cast<double>(writes_in_flight_.size());
  });
}

void AxiMasterBase::reset() {
  next_id_ = 1;
  reads_in_flight_.clear();
  writes_in_flight_.clear();
  w_backlog_.clear();
  stats_ = MasterStats{};
  reset_master();
}

void AxiMasterBase::abandon_in_flight() {
  stats_.reads_failed += reads_in_flight_.size();
  stats_.writes_failed += writes_in_flight_.size();
  reads_in_flight_.clear();
  writes_in_flight_.clear();
  w_backlog_.clear();
  // Stale beats and requests die with the abandoned transactions — a
  // response left in the link would otherwise be attributed to whatever the
  // restarted master issues next.
  link_.ar.clear_contents();
  link_.aw.clear_contents();
  link_.w.clear_contents();
  link_.r.clear_contents();
  link_.b.clear_contents();
  reset_master();
}

TxnId AxiMasterBase::next_id() {
  const TxnId id = next_id_;
  next_id_ = (next_id_ + 1) % kIdLimit;
  if (next_id_ == 0) next_id_ = 1;
  return id;
}

bool AxiMasterBase::can_issue_read() const {
  return link_.ar.can_push() && reads_in_flight_.size() < max_or_;
}

void AxiMasterBase::issue_read(Addr addr, BeatCount beats, Cycle now) {
  AXIHC_CHECK(can_issue_read());
  AddrReq req;
  req.id = next_id();
  req.addr = addr;
  req.beats = beats;
  req.size_log2 = kBusSizeLog2;
  req.issued_at = now;
  reads_in_flight_.push_back({req, beats});
  link_.ar.push(req);
  ++stats_.reads_issued;
}

bool AxiMasterBase::can_issue_write() const {
  return link_.aw.can_push() && writes_in_flight_.size() < max_ow_;
}

void AxiMasterBase::issue_write(Addr addr, BeatCount beats, Cycle now,
                                std::uint64_t fill_seed) {
  AXIHC_CHECK(can_issue_write());
  AddrReq req;
  req.id = next_id();
  req.addr = addr;
  req.beats = beats;
  req.size_log2 = kBusSizeLog2;
  req.issued_at = now;
  writes_in_flight_.push_back({req, beats});
  link_.aw.push(req);
  for (BeatCount i = 0; i < beats; ++i) {
    w_backlog_.push_back({fill_seed + i, 0xff, i + 1 == beats});
  }
  ++stats_.writes_issued;
}

void AxiMasterBase::issue_write_data(Addr addr,
                                     const std::vector<std::uint64_t>& data,
                                     Cycle now) {
  AXIHC_CHECK(can_issue_write());
  AXIHC_CHECK(!data.empty());
  AddrReq req;
  req.id = next_id();
  req.addr = addr;
  req.beats = static_cast<BeatCount>(data.size());
  req.size_log2 = kBusSizeLog2;
  req.issued_at = now;
  writes_in_flight_.push_back({req, req.beats});
  link_.aw.push(req);
  for (std::size_t i = 0; i < data.size(); ++i) {
    w_backlog_.push_back({data[i], 0xff, i + 1 == data.size()});
  }
  ++stats_.writes_issued;
}

// Slot resolution tolerates responses that match nothing in flight
// (kStraySlot): after a recovery reset abandons the outstanding
// transactions, their responses can still arrive — the master must sink
// them, it cannot crash on them. Strays are counted (stats_.stray_*) so a
// healthy run can still assert zero.
std::size_t AxiMasterBase::read_slot_for(const RBeat& beat) {
  if (reads_in_flight_.empty()) return kStraySlot;
  if (!allow_ooo_) {
    return beat.id == reads_in_flight_.front().req.id ? 0 : kStraySlot;
  }
  // Out-of-order tolerant: reordering is burst-granular (the memory serves
  // whole transactions), so the beat belongs to the oldest in-flight read
  // with its ID that has already started (or any with that ID — per-ID
  // order is guaranteed by AXI).
  for (std::size_t i = 0; i < reads_in_flight_.size(); ++i) {
    if (reads_in_flight_[i].req.id == beat.id) return i;
  }
  return kStraySlot;
}

std::size_t AxiMasterBase::write_slot_for(const BResp& resp) {
  if (writes_in_flight_.empty()) return kStraySlot;
  if (!allow_ooo_) {
    return resp.id == writes_in_flight_.front().req.id ? 0 : kStraySlot;
  }
  for (std::size_t i = 0; i < writes_in_flight_.size(); ++i) {
    if (writes_in_flight_[i].req.id == resp.id) return i;
  }
  return kStraySlot;
}

void AxiMasterBase::pump(Cycle now) {
  // Stream one write-data beat per cycle (64-bit bus rate).
  if (!w_backlog_.empty() && link_.w.can_push()) {
    link_.w.push(w_backlog_.front());
    w_backlog_.pop_front();
  }

  // Drain one read beat per cycle. AXI ends a read burst at RLAST, full
  // stop — the beat count is only an expectation. A mismatch against the
  // issued ARLEN (early RLAST from a truncated or error-terminated burst,
  // surplus beats from a corrupted length) is a protocol error charged to
  // the transaction, not a simulator invariant: the transfer completes on
  // RLAST and is counted as failed.
  if (link_.r.can_pop()) {
    const RBeat beat = link_.r.pop();
    const std::size_t slot = read_slot_for(beat);
    if (slot == kStraySlot) {
      ++stats_.stray_r_beats;
      if (tracing()) trace_->record(now, name(), "stray_r_beat");
    } else {
      auto& entry = reads_in_flight_[slot];
      if (entry.beats_left > 0) {
        --entry.beats_left;
      } else {
        entry.error = true;  // surplus beat past the expected count
      }
      if (is_error(beat.resp)) entry.error = true;
      stats_.bytes_read += kBusBytes;
      on_read_beat(beat, now);
      if (beat.last) {
        if (entry.beats_left != 0) entry.error = true;  // short burst
        const AddrReq done = entry.req;
        const bool failed = entry.error;
        reads_in_flight_.erase(reads_in_flight_.begin() +
                               static_cast<std::ptrdiff_t>(slot));
        ++stats_.reads_completed;
        if (failed) {
          ++stats_.reads_failed;
          if (tracing()) trace_->record(now, name(), "read_error");
        }
        stats_.read_latency.record(now - done.issued_at);
        if (audit_ != nullptr && audit_->enabled()) {
          audit_->on_complete(audit_port_, false, done, failed, now);
        }
        on_read_complete(done, now);
      }
    }
  }

  // Drain one write response per cycle.
  if (link_.b.can_pop()) {
    const BResp resp = link_.b.pop();
    const std::size_t slot = write_slot_for(resp);
    if (slot == kStraySlot) {
      ++stats_.stray_b_resps;
      if (tracing()) trace_->record(now, name(), "stray_b_resp");
    } else {
      const AddrReq done = writes_in_flight_[slot].req;
      writes_in_flight_.erase(writes_in_flight_.begin() +
                              static_cast<std::ptrdiff_t>(slot));
      ++stats_.writes_completed;
      if (is_error(resp.resp)) {
        ++stats_.writes_failed;
        if (tracing()) trace_->record(now, name(), "write_error");
      }
      stats_.bytes_written += burst_bytes(done);
      stats_.write_latency.record(now - done.issued_at);
      if (audit_ != nullptr && audit_->enabled()) {
        audit_->on_complete(audit_port_, true, done, is_error(resp.resp),
                            now);
      }
      on_write_complete(done, now);
    }
  }
}

void AxiMasterBase::on_read_beat(const RBeat&, Cycle) {}
void AxiMasterBase::on_read_complete(const AddrReq&, Cycle) {}
void AxiMasterBase::on_write_complete(const AddrReq&, Cycle) {}

}  // namespace axihc
