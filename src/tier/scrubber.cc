#include "tier/scrubber.h"

#include <chrono>

namespace jdvs {

TierScrubber::TierScrubber(StoreProvider provider,
                           const TierScrubConfig& config)
    : provider_(std::move(provider)), config_(config) {
  obs::Registry& registry =
      config.registry != nullptr ? *config.registry : obs::Registry::Default();
  lists_metric_ = &registry.GetCounter("jdvs_scrub_lists_total");
  corrupt_metric_ = &registry.GetCounter("jdvs_scrub_corrupt_total");
  cycles_metric_ = &registry.GetCounter("jdvs_scrub_cycles_total");
}

TierScrubber::~TierScrubber() { Stop(); }

void TierScrubber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void TierScrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void TierScrubber::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::microseconds(config_.poll_micros),
                   [this] { return stop_; });
      if (stop_) return;
    }
    // Re-resolve every slice: a controller repair swaps the index (and its
    // store) out from under us, and the shared_ptr keeps this slice's store
    // alive even then.
    const std::shared_ptr<TieredListStore> store = provider_();
    if (store == nullptr || store->num_lists() == 0) continue;
    Micros spent = 0;
    for (std::size_t i = 0; i < config_.lists_per_slice; ++i) {
      if (config_.io_budget_micros_per_slice > 0 &&
          spent >= config_.io_budget_micros_per_slice) {
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
      }
      std::size_t list;
      {
        std::lock_guard<std::mutex> lock(mu_);
        list = cursor_ % store->num_lists();
        cursor_ = (cursor_ + 1) % store->num_lists();
        if (cursor_ == 0) {
          cycles_.fetch_add(1, std::memory_order_relaxed);
          cycles_metric_->Increment();
        }
      }
      const TieredListStore::ScrubStatus status =
          store->ScrubList(static_cast<std::uint32_t>(list), &spent);
      lists_scrubbed_.fetch_add(1, std::memory_order_relaxed);
      lists_metric_->Increment();
      if (status == TieredListStore::ScrubStatus::kCorrupt ||
          status == TieredListStore::ScrubStatus::kIoError) {
        corrupt_found_.fetch_add(1, std::memory_order_relaxed);
        corrupt_metric_->Increment();
      }
    }
  }
}

}  // namespace jdvs
