// Always-on flight recorder for per-query stage timings.
//
// The sampled tracer (obs/trace.h) captures 1-in-N queries, which by
// construction misses the exact slow query behind a page. The flight
// recorder closes that gap: the blender records a fixed-size FlightRecord
// for *every* query (a handful of stage durations, no strings, no
// allocation on the hot path) into a lock-striped ring. When a query
// breaches the SLO threshold -- or the QoS degradation ladder steps up --
// DumpOnAnomaly() freezes a snapshot of the ring once, so the queries
// surrounding the anomaly are always available retroactively. The dump is
// once-only until Rearm() to keep the first (most interesting) snapshot
// from being overwritten by the follow-on storm.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/spinlock.h"

namespace jdvs::obs {

class Registry;
class Counter;

// Blender-level stage decomposition of one query. kFanOut is the whole
// dispatch->fan-in wall; kScan / kHedgeWait / kFanIn decompose it (scan is
// the slowest winning searcher attempt, hedge wait the primary->hedge
// dispatch gap on hedge wins, fan-in the remainder: dispatch, merge and
// queue time inside the fan-out).
enum class FlightStage : std::uint8_t {
  kQueueWait = 0,  // blender pool queue wait, after the front-end hop
  kExtract,
  kFanOut,
  kScan,
  kHedgeWait,
  kFanIn,
  kRank,
  // Filter-bitmap materialization inside the winning searcher attempts of a
  // hybrid (attribute-filtered) query; carved out of kScan by the blender so
  // kFilter + kScan still equals the slowest winning attempt. Appended at
  // the end so existing persisted stage arrays keep their indices.
  kFilter,
  // Cold-list fault time inside the winning searcher attempts of a tiered
  // (mmap-served) partition; carved out of kScan like kFilter, so
  // kFilter + kIo + kScan still equals the slowest winning attempt. Also
  // appended at the end for persisted-array compatibility.
  kIo,
  // Front-end hop into the blender: submit to the due time of the blender
  // task (ThreadPool::CurrentTaskDueMicros), so kWire + kQueueWait is the
  // whole submit-to-start gap. Appended at the end like kFilter and kIo.
  kWire,
  // Between extraction and the broker fan-out: blender pool wait after the
  // extraction's due time and time in the fan-out window's FIFO (plus the
  // cache lookup in between). kExtract covers the extraction alone.
  // Appended like kWire.
  kFanOutWait,
};
inline constexpr std::size_t kNumFlightStages = 11;
const char* FlightStageName(FlightStage stage);

struct FlightRecord {
  std::uint64_t ordinal = 0;   // assigned by FlightRecorder::Record
  std::uint64_t trace_id = 0;  // 0 when the query was not trace-sampled
  Micros start_micros = 0;     // submit time (monotonic clock)
  Micros total_micros = 0;
  Micros stage_micros[kNumFlightStages] = {};
  std::int8_t degradation_level = 0;
  bool degraded = false;
  bool cache_hit = false;
  bool error = false;

  Micros stage(FlightStage s) const {
    return stage_micros[static_cast<std::size_t>(s)];
  }
  void set_stage(FlightStage s, Micros value) {
    stage_micros[static_cast<std::size_t>(s)] = value < 0 ? 0 : value;
  }
};

class FlightRecorder {
 public:
  struct Config {
    std::size_t stripes = 8;
    std::size_t capacity_per_stripe = 512;
    // A record with total_micros > slo_micros triggers DumpOnAnomaly.
    // 0 disables the SLO trigger (external triggers still work).
    Micros slo_micros = 0;
    std::size_t max_dumps = 4;  // retained dump snapshots (oldest evicted)
  };

  struct Dump {
    std::string reason;
    Micros at_micros = 0;
    std::vector<FlightRecord> records;  // ring snapshot, ordinal-ascending
  };

  // `registry` is optional; when set, jdvs_flight_* counters mirror the
  // recorder's own counters so scrapes see recorder health.
  explicit FlightRecorder(Config config,
                          const Clock& clock = MonotonicClock::Instance(),
                          Registry* registry = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one record (assigning its ordinal) and fires the SLO trigger if
  // breached. Wait-free except for one striped spinlock. Returns the
  // assigned ordinal (0-based), or 0 with no effect when disabled.
  std::uint64_t Record(FlightRecord record);

  // Anomaly hook: snapshots the ring into a retained Dump. Once-only --
  // after the first dump the recorder is disarmed and further anomalies
  // only count as suppressed until Rearm(). Safe to call from QoS
  // callbacks; takes only the recorder's own locks.
  void DumpOnAnomaly(const std::string& reason);
  void Rearm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Kill switch for overhead measurement (bench_fig13a) and emergencies.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Current ring contents, ordinal-ascending (oldest surviving first).
  std::vector<FlightRecord> Snapshot() const;
  std::vector<Dump> dumps() const;

  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  // All anomaly triggers, including suppressed ones.
  std::uint64_t anomalies() const {
    return anomalies_.load(std::memory_order_relaxed);
  }
  std::uint64_t dumps_taken() const {
    return dumps_taken_.load(std::memory_order_relaxed);
  }

  const Config& config() const { return config_; }

 private:
  struct Stripe {
    mutable SpinLock lock;
    std::vector<FlightRecord> ring;  // capacity_per_stripe entries
    std::size_t next = 0;
    std::size_t filled = 0;
  };

  Config config_;
  const Clock& clock_;
  std::vector<Stripe> stripes_;
  std::atomic<std::uint64_t> next_ordinal_{1};  // 0 = "not recorded"
  std::atomic<bool> enabled_{true};
  std::atomic<bool> armed_{true};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> anomalies_{0};
  std::atomic<std::uint64_t> dumps_taken_{0};

  mutable std::mutex dumps_mu_;
  std::vector<Dump> dumps_;

  // Optional registry mirrors (nullptr without a registry).
  Counter* records_total_ = nullptr;
  Counter* anomalies_total_ = nullptr;
  Counter* dumps_total_ = nullptr;
};

}  // namespace jdvs::obs
