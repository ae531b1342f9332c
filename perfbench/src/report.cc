#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

int64_t Samples::Quantile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest sample with at least q of all samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

int64_t Samples::CountAbove(int64_t ns) const {
  return std::count_if(values_.begin(), values_.end(),
                       [ns](int64_t v) { return v > ns; });
}

double Samples::SumNs() const {
  double sum = 0.0;
  for (const int64_t v : values_) sum += static_cast<double>(v);
  return sum;
}

double Samples::MeanNs() const {
  return values_.empty() ? 0.0 : SumNs() / static_cast<double>(values_.size());
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.minor_faults = ru.ru_minflt;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int64_t StealTicks(int cpu) {
  if (cpu < 0) return 0;
  std::ifstream stat("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream in(line);
    std::string name;
    in >> name;
    if (name != want) continue;
    // user nice system idle iowait irq softirq steal
    int64_t field = 0;
    for (int i = 0; i < 8 && (in >> field); ++i) {
    }
    return field;
  }
  return 0;
}

double StealTicksToMs(int64_t ticks) {
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(ticks) * 1000.0 / static_cast<double>(hz)
                : 0.0;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

int32_t SpanLog::Open(const char* name, int32_t parent, int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = Now();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::AdoptKernelSpans(int32_t parent, int64_t request,
                               std::map<std::string, int64_t>* counts) {
  for (const ppr::TraceSpan& k : sink_.Snapshot()) {
    Span span;
    span.name = ppr::TraceOpName(k.op);
    span.start_ns = k.start_ns;
    span.end_ns = k.start_ns + k.duration_ns;
    span.parent = parent;
    span.request = request;
    spans_.push_back(span);
    const std::string op = span.name;
    (*counts)[op + ".build_rows"] += k.ht_build_rows;
    (*counts)[op + ".probe_ops"] += k.ht_probe_ops;
  }
  sink_.Clear();
}

void SpanLog::SelfTimes(std::map<std::string, double>* self_ns,
                        std::map<std::string, int64_t>* calls) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    (*self_ns)[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
    ++(*calls)[span.name];
  }
}

Samples SpanLog::Durations(const char* name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) out.Add(span.end_ns - span.start_ns);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,start_ns,end_ns,parent,request\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%d,%lld\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void CountRecord::Set(const std::string& key, int64_t value) {
  for (auto& field : fields_) {
    if (field.first == key) {
      field.second = value;
      return;
    }
  }
  fields_.push_back({key, value});
}

int64_t CountRecord::Get(const std::string& key) const {
  for (const auto& [k, value] : fields_) {
    if (k == key) return value;
  }
  return 0;
}

std::string CountRecord::ToString() const {
  std::string out;
  for (const auto& [key, value] : fields_) {
    if (!out.empty()) out += ' ';
    out += key + "=" + std::to_string(value);
  }
  return out;
}

namespace {

/// A hash (FNV-1a) of this program's executable, read in small chunks so
/// that it does not raise the peak RSS. Records are kept per build: a
/// rebuilt engine may legitimately produce other counts (fewer tuples,
/// another cache behaviour), and its first run starts a fresh record.
std::string ProgramId() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  uint64_t hash = 14695981039346656037ULL;
  char chunk[4096];
  while (exe.read(chunk, sizeof(chunk)) || exe.gcount() > 0) {
    for (std::streamsize i = 0; i < exe.gcount(); ++i) {
      hash = (hash ^ static_cast<unsigned char>(chunk[i])) * 1099511628211ULL;
    }
  }
  char id[17];
  std::snprintf(id, sizeof(id), "%016llx",
                static_cast<unsigned long long>(hash));
  return id;
}

}  // namespace

bool CheckAgainstEarlierRuns(const Options& options,
                             const CountRecord& record) {
  const std::string path = options.state_dir + "/counts-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-" +
                           ProgramId() + ".txt";
  const std::string mine = record.ToString();
  std::ifstream in(path);
  std::string earlier;
  if (in && std::getline(in, earlier)) {
    if (earlier == mine) return true;
    std::printf("FAIL deterministic counts differ from an earlier run of "
                "this build with seed %llu:\n  earlier: %s\n  now:     %s\n",
                static_cast<unsigned long long>(options.seed), earlier.c_str(),
                mine.c_str());
    return false;
  }
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  out << mine << "\n";
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::printf("note: could not store the count record at %s\n",
                path.c_str());
  }
  return true;
}

bool PassesAgree(const char* phase, const std::vector<CountRecord>& passes) {
  for (size_t i = 1; i < passes.size(); ++i) {
    if (!(passes[i] == passes[0])) {
      std::printf("FAIL %s pass %zu counts differ from pass 0:\n  pass 0: %s\n"
                  "  pass %zu: %s\n",
                  phase, i, passes[0].ToString().c_str(), i,
                  passes[i].ToString().c_str());
      return false;
    }
  }
  return true;
}

bool SameRelation(const ppr::Relation& a, const ppr::Relation& b) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  for (int c = 0; c < a.arity(); ++c) {
    if (a.schema().attr(c) != b.schema().attr(c)) return false;
  }
  const int64_t values = a.size() * a.arity();
  return values == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(values) * sizeof(ppr::Value)) == 0;
}

void RunResult::Print() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    // Shortest text that reads back as the same double: every digit the
    // measurement has, none it does not.
    char value[64];
    const double v = std::isfinite(metric.first) ? metric.first : 0.0;
    const auto written = std::to_chars(value, value + sizeof(value), v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " +
           std::string(value, written.ptr) + ", \"unit\": \"" +
           metric.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void LayerMetrics::FromSpans(const SpanLog& log, int64_t ops, int passes,
                             int64_t tuples,
                             const std::map<std::string, int64_t>& kernel) {
  std::map<std::string, double> self_ns;
  std::map<std::string, int64_t> calls;
  log.SelfTimes(&self_ns, &calls);
  const auto per_op_us = [&](const char* name) {
    const auto it = self_ns.find(name);
    return it == self_ns.end() || ops <= 0
               ? 0.0
               : it->second / 1e3 / static_cast<double>(ops);
  };
  const auto per_pass = [&](const char* key) {
    const auto it = kernel.find(key);
    return it == kernel.end() || passes <= 0
               ? 0.0
               : static_cast<double>(it->second) / passes;
  };
  parse_us = per_op_us("parse");
  canonicalize_us = per_op_us("canonicalize");
  plan_us = per_op_us("plan");
  analyze_us = per_op_us("analyze");
  compile_us = per_op_us("compile");
  join_self_us = per_op_us("join");
  project_self_us = per_op_us("project");
  scan_self_us = per_op_us("scan");
  Samples exec = log.Durations("execute");
  execute_us = exec.Quantile(0.50) / 1e3;
  execute_ms_per_pass = passes > 0 ? exec.SumNs() / 1e6 / passes : 0.0;
  tuples_per_s = exec.SumNs() > 0 ? tuples / (exec.SumNs() / 1e9) : 0.0;
  join_probe_ops = per_pass("join.probe_ops");
  join_build_rows = per_pass("join.build_rows");
}

void LayerMetrics::AddTo(RunResult* r) const {
  r->Metric("service.rtt_overhead_us", rtt_overhead_us, "us");
  r->Metric("service.queue_wait_us", queue_wait_us, "us");
  r->Metric("service.ctx_switches_per_req", ctx_switches_per_req, "count");
  r->Metric("service.reply_bytes_per_req", reply_bytes_per_req, "bytes");
  r->Metric("service.frames_per_req", frames_per_req, "count");
  r->Metric("query.parse_us", parse_us, "us");
  r->Metric("runtime.canonicalize_us", canonicalize_us, "us");
  r->Metric("runtime.cache_hit_ratio", cache_hit_ratio, "ratio");
  r->Metric("runtime.cache_lookups", cache_lookups, "count");
  r->Metric("runtime.cache_evictions", cache_evictions, "count");
  r->Metric("core.plan_us", plan_us, "us");
  r->Metric("analysis.analyze_us", analyze_us, "us");
  r->Metric("exec.compile_us", compile_us, "us");
  r->Metric("exec.execute_us", execute_us, "us");
  r->Metric("exec.execute_ms_per_pass", execute_ms_per_pass, "ms");
  r->Metric("exec.timeouts", timeouts, "count");
  r->Metric("relational.tuples_produced", tuples_produced, "count");
  r->Metric("relational.tuples_per_s", tuples_per_s, "1/s");
  r->Metric("relational.join_self_us", join_self_us, "us");
  r->Metric("relational.project_self_us", project_self_us, "us");
  r->Metric("relational.scan_self_us", scan_self_us, "us");
  r->Metric("relational.join_probe_ops", join_probe_ops, "count");
  r->Metric("relational.join_build_rows", join_build_rows, "count");
  r->Metric("relational.peak_bytes", peak_bytes, "bytes");
  r->Metric("relational.minor_faults_per_query", minor_faults_per_query,
            "count");
  r->Metric("host.steal_ms", steal_ms, "ms");
  r->Metric("host.cpu", cpu, "id");
  r->Metric("trace.overhead_pct", trace_overhead_pct, "%");
  r->Metric("trace.unexplained_pct", unexplained_pct, "%");
}

void PrintLatency(const char* label, Samples& samples) {
  const int64_t p50 = samples.Quantile(0.50);
  const int64_t p99 = samples.Quantile(0.99);
  std::printf("%s: samples=%zu p50=%.4f ms p99=%.4f ms beyond_p99=%lld "
              "mean=%.4f ms\n",
              label, samples.size(), p50 / 1e6, p99 / 1e6,
              static_cast<long long>(samples.CountAbove(p99)),
              samples.MeanNs() / 1e6);
}

void PrintSelfTimes(const SpanLog& log, int64_t ops) {
  std::map<std::string, double> self_ns;
  std::map<std::string, int64_t> calls;
  log.SelfTimes(&self_ns, &calls);
  std::printf("self time per operation (%lld operations, %zu spans):\n",
              static_cast<long long>(ops), log.size());
  for (const auto& [name, ns] : self_ns) {
    std::printf("  %-14s %10.3f us  (%lld calls)\n", name.c_str(),
                ops > 0 ? ns / 1e3 / static_cast<double>(ops) : 0.0,
                static_cast<long long>(calls[name]));
  }
}

}  // namespace perfbench
