// Spans recorded by the traced drivers around each call into a layer, and
// their export in the Chrome-trace JSON object format that
// src/trace/chrome_trace already writes ({"traceEvents":[...]} with "M"
// metadata records), here with "X" (complete) events so each span keeps
// its duration.
//
// Spans live in per-thread vectors while the run is hot and are written
// out once, at exit.

#ifndef WSCBENCH_SPANS_H_
#define WSCBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/statsz.h"

namespace wscbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // generator op (or simulator step) index
  uint64_t t0 = 0, t1 = 0;  // ticks
  const char* name = "";
  int pid = 0;  // one per replay target
  int tid = 0;  // generator thread
};

// Renders `spans` with timestamps in microseconds since `t_base`.
// `processes` names each pid.
inline std::string RenderSpans(
    const std::vector<Span>& spans,
    const std::vector<std::pair<int, std::string>>& processes,
    uint64_t t_base, double ns_per_tick) {
  using wsc::telemetry::AppendJsonEscaped;
  using wsc::telemetry::FormatJsonNumber;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : processes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"args\":{\"name\":\"";
    AppendJsonEscaped(out, name);
    out += "\"}}";
  }
  auto us = [&](uint64_t ticks) {
    return static_cast<double>(ticks) * ns_per_tick / 1000.0;
  };
  for (const Span& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(out, s.name);
    out += "\",\"cat\":\"wscbench\",\"ph\":\"X\",\"ts\":";
    out += FormatJsonNumber(us(s.t0 >= t_base ? s.t0 - t_base : 0));
    out += ",\"dur\":";
    out += FormatJsonNumber(us(s.t1 >= s.t0 ? s.t1 - s.t0 : 0));
    out += ",\"pid\":" + std::to_string(s.pid) +
           ",\"tid\":" + std::to_string(s.tid) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"op\":" + std::to_string(s.op) + "}}";
  }
  out += "]}";
  return out;
}

inline bool WriteFile(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace wscbench

#endif  // WSCBENCH_SPANS_H_
