#include "obs/trace_export.h"

#include <cstdio>

namespace sbft::obs {
namespace {

void append_event_common(std::string& out, uint32_t replica,
                         const TraceEvent& e) {
  out += "\"name\":\"";
  out += e.name;
  out += "\",\"cat\":\"";
  out += category_name(e.category);
  out += "\",\"pid\":" + std::to_string(replica);
  out += ",\"tid\":" + std::to_string(static_cast<unsigned>(e.category) + 1);
  out += ",\"ts\":" + std::to_string(e.ts_us);
}

void append_args(std::string& out, const TraceEvent& e) {
  out += ",\"args\":{";
  out += "\"seq\":" + std::to_string(e.seq);
  out += ",\"view\":" + std::to_string(e.view);
  if (e.arg_name != nullptr) {
    out += ",\"";
    out += e.arg_name;
    out += "\":" + std::to_string(e.arg);
  }
  out += '}';
}

void append_metadata(std::string& out, uint32_t replica, bool& first) {
  auto meta = [&](const char* name, uint64_t tid, const std::string& value) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += name;
    out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(replica);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"args\":{\"name\":\"" + value + "\"}}";
  };
  meta("process_name", 0, "replica " + std::to_string(replica));
  for (size_t c = 0; c < kNumCategories; ++c) {
    meta("thread_name", c + 1, category_name(static_cast<Category>(c)));
  }
}

}  // namespace

std::string chrome_trace_json(const std::vector<const Tracer*>& tracers) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const Tracer* t : tracers) {
    if (t == nullptr) continue;
    append_metadata(out, t->replica(), first);
  }
  for (const Tracer* t : tracers) {
    if (t == nullptr) continue;
    for (const TraceEvent& e : t->events()) {
      if (!first) out += ",\n";
      first = false;
      out += '{';
      append_event_common(out, t->replica(), e);
      switch (e.phase) {
        case EventPhase::kInstant:
          out += ",\"ph\":\"i\",\"s\":\"t\"";
          break;
        case EventPhase::kBegin:
        case EventPhase::kEnd:
          out += e.phase == EventPhase::kBegin ? ",\"ph\":\"b\"" : ",\"ph\":\"e\"";
          break;
      }
      // Every event names its span, so an instant joins the span it belongs
      // to on the same key its begin and end pair on.
      out += ",\"id\":\"r" + std::to_string(t->replica()) + ":";
      out += category_name(e.category);
      out += ":" + std::to_string(e.span) + "\"";
      append_args(out, e);
      out += '}';
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::string json = chrome_trace_json(tracers);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

}  // namespace sbft::obs
