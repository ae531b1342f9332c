#include "obs/telemetry/flight_recorder.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>

#include "common/env.h"
#include "obs/exporters.h"

namespace ppr {
namespace {

void AppendSpanJson(std::ostringstream& out, const TraceSpan& s) {
  out << "{\"op\":\"" << TraceOpName(s.op) << "\",\"node\":" << s.node_id
      << ",\"start_ns\":" << s.start_ns << ",\"duration_ns\":" << s.duration_ns
      << ",\"rows_in\":" << s.rows_in << ",\"rows_out\":" << s.rows_out
      << ",\"arity_in\":" << s.arity_in << ",\"arity_out\":" << s.arity_out
      << ",\"bytes\":" << s.bytes << ",\"ht_build_rows\":" << s.ht_build_rows
      << ",\"ht_probe_ops\":" << s.ht_probe_ops << "}";
}

}  // namespace

const char* FlightTriggerName(FlightTrigger trigger) {
  switch (trigger) {
    case FlightTrigger::kBudgetExhausted:
      return "budget_exhausted";
    case FlightTrigger::kFailure:
      return "failure";
    case FlightTrigger::kLatencyOutlier:
      return "latency_outlier";
  }
  return "?";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {}

std::string FlightRecorder::RenderFlight(
    int64_t flight_id, FlightTrigger trigger, const QueryRecord& record,
    uint64_t median_wall_ns, const std::vector<TraceSpan>& spans) const {
  std::ostringstream out;
  out << "{\"flight\":" << flight_id << ",\"trigger\":\""
      << FlightTriggerName(trigger) << "\""
      << ",\"median_wall_ns\":" << median_wall_ns
      << ",\"latency_multiple\":" << options_.latency_multiple
      << ",\"record\":" << QueryRecordToJson(record) << ",\"spans\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out << ",";
    first = false;
    out << "\n";
    AppendSpanJson(out, s);
  }
  out << "\n]}\n";
  return out.str();
}

std::optional<FlightTrigger> FlightRecorder::Observe(const QueryRecord& record,
                                                     const QueryLog& log,
                                                     const TraceSink* spans) {
  std::optional<FlightTrigger> trigger;
  uint64_t median = 0;
  switch (record.outcome) {
    case QueryOutcome::kBudgetExhausted:
      trigger = FlightTrigger::kBudgetExhausted;
      break;
    case QueryOutcome::kFailed:
      trigger = FlightTrigger::kFailure;
      break;
    case QueryOutcome::kOk: {
      median = log.MedianWallNs(record.fingerprint);
      const uint64_t samples = log.LatencySamples(record.fingerprint);
      if (samples >= options_.min_latency_samples && median > 0 &&
          static_cast<double>(record.wall_ns) >
              options_.latency_multiple * static_cast<double>(median)) {
        trigger = FlightTrigger::kLatencyOutlier;
      }
      break;
    }
  }
  if (!trigger.has_value()) return std::nullopt;
  if (record.outcome == QueryOutcome::kOk && median == 0) {
    median = log.MedianWallNs(record.fingerprint);
  }

  int64_t flight_id;
  {
    MutexLock lock(mu_);
    flight_id = next_id_++;
    if (options_.dir.empty() || dumps_ >= options_.max_dumps) {
      return trigger;  // classified, dump budget spent (or disk disabled)
    }
    ++dumps_;
  }

  std::vector<TraceSpan> tail;
  if (spans != nullptr) {
    const uint64_t total = spans->total_recorded();
    const uint64_t from = total > kFlightSpans ? total - kFlightSpans : 0;
    tail = spans->SnapshotSince(from);
  }
  const std::string doc =
      RenderFlight(flight_id, *trigger, record, median, tail);

  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  const std::string path =
      options_.dir + "/flight-" + std::to_string(flight_id) + ".json";
  if (WriteFileAtomicEnough(path, doc).ok()) {
    MutexLock lock(mu_);
    last_dump_path_ = path;
  }
  return trigger;
}

int64_t FlightRecorder::dumps() const {
  MutexLock lock(mu_);
  return dumps_;
}

std::string FlightRecorder::last_dump_path() const {
  MutexLock lock(mu_);
  return last_dump_path_;
}

namespace {

struct GlobalFlightState {
  std::atomic<bool> enabled{false};
  std::unique_ptr<FlightRecorder> recorder GUARDED_BY(GlobalObsMutex());

  GlobalFlightState() {
    const EnvConfig& env = ProcessEnv();
    if (!env.flight_dir.empty()) {
      FlightRecorderOptions options;
      options.dir = env.flight_dir;
      recorder = std::make_unique<FlightRecorder>(std::move(options));
      enabled.store(true, std::memory_order_relaxed);
    }
  }
};

GlobalFlightState& FlightState() {
  static GlobalFlightState state;
  return state;
}

}  // namespace

void EnableFlightRecorder(FlightRecorderOptions options) {
  GlobalFlightState& state = FlightState();
  MutexLock lock(GlobalObsMutex());
  state.recorder = std::make_unique<FlightRecorder>(std::move(options));
  state.enabled.store(true, std::memory_order_release);
}

void DisableFlightRecorder() {
  GlobalFlightState& state = FlightState();
  MutexLock lock(GlobalObsMutex());
  state.enabled.store(false, std::memory_order_release);
  state.recorder.reset();
}

bool FlightRecorderEnabled() {
  return FlightState().enabled.load(std::memory_order_acquire);
}

FlightRecorder* GlobalFlightRecorderIfEnabled() {
  GlobalFlightState& state = FlightState();
  if (!state.enabled.load(std::memory_order_acquire)) return nullptr;
  return state.recorder.get();
}

}  // namespace ppr
