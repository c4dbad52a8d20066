#include "obs/flight_recorder.h"

#include <algorithm>

#include "obs/registry.h"

namespace jdvs::obs {

const char* FlightStageName(FlightStage stage) {
  switch (stage) {
    case FlightStage::kQueueWait:
      return "queue_wait";
    case FlightStage::kExtract:
      return "extract";
    case FlightStage::kFanOut:
      return "broker_fanout";
    case FlightStage::kScan:
      return "searcher_scan";
    case FlightStage::kHedgeWait:
      return "hedge_wait";
    case FlightStage::kFanIn:
      return "fan_in";
    case FlightStage::kRank:
      return "rank";
    case FlightStage::kFilter:
      return "searcher_filter";
    case FlightStage::kIo:
      return "searcher_io";
    case FlightStage::kWire:
      return "wire";
    case FlightStage::kFanOutWait:
      return "fanout_wait";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Config config, const Clock& clock,
                               Registry* registry)
    : config_(config), clock_(clock) {
  config_.stripes = std::max<std::size_t>(1, config_.stripes);
  config_.capacity_per_stripe =
      std::max<std::size_t>(1, config_.capacity_per_stripe);
  config_.max_dumps = std::max<std::size_t>(1, config_.max_dumps);
  stripes_ = std::vector<Stripe>(config_.stripes);
  for (Stripe& stripe : stripes_) {
    stripe.ring.resize(config_.capacity_per_stripe);
  }
  if (registry != nullptr) {
    records_total_ = &registry->GetCounter("jdvs_flight_records_total");
    anomalies_total_ = &registry->GetCounter("jdvs_flight_anomalies_total");
    dumps_total_ = &registry->GetCounter("jdvs_flight_dumps_total");
  }
}

std::uint64_t FlightRecorder::Record(FlightRecord record) {
  if (!enabled()) return 0;
  record.ordinal = next_ordinal_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[record.ordinal % stripes_.size()];
  {
    std::lock_guard lock(stripe.lock);
    stripe.ring[stripe.next] = record;
    stripe.next = (stripe.next + 1) % stripe.ring.size();
    stripe.filled = std::min(stripe.filled + 1, stripe.ring.size());
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (records_total_ != nullptr) records_total_->Increment();
  if (config_.slo_micros > 0 && record.total_micros > config_.slo_micros) {
    DumpOnAnomaly("slo breach: query " + std::to_string(record.ordinal) +
                  " took " + std::to_string(record.total_micros) + "us (slo " +
                  std::to_string(config_.slo_micros) + "us)");
  }
  return record.ordinal;
}

void FlightRecorder::DumpOnAnomaly(const std::string& reason) {
  anomalies_.fetch_add(1, std::memory_order_relaxed);
  if (anomalies_total_ != nullptr) anomalies_total_->Increment();
  // Once-only: the first anomaly after (re)arming wins; the rest only count.
  if (!armed_.exchange(false, std::memory_order_acq_rel)) return;
  Dump dump;
  dump.reason = reason;
  dump.at_micros = clock_.NowMicros();
  dump.records = Snapshot();
  dumps_taken_.fetch_add(1, std::memory_order_relaxed);
  if (dumps_total_ != nullptr) dumps_total_->Increment();
  std::lock_guard lock(dumps_mu_);
  if (dumps_.size() >= config_.max_dumps) {
    dumps_.erase(dumps_.begin());
  }
  dumps_.push_back(std::move(dump));
}

void FlightRecorder::Rearm() {
  armed_.store(true, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(stripes_.size() * config_.capacity_per_stripe);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard lock(stripe.lock);
    for (std::size_t i = 0; i < stripe.filled; ++i) {
      out.push_back(stripe.ring[i]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.ordinal < b.ordinal;
            });
  return out;
}

std::vector<FlightRecorder::Dump> FlightRecorder::dumps() const {
  std::lock_guard lock(dumps_mu_);
  return dumps_;
}

}  // namespace jdvs::obs
