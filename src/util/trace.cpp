#include "util/trace.hpp"

#include "util/json.hpp"

namespace dagsfc::util {

std::string to_chrome_trace(std::span<const TraceEvent> events,
                            std::uint32_t pid) {
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.cat.empty() ? std::string("default") : e.cat);
    out += "\",\"ph\":\"";
    out.push_back(e.phase);
    out += "\",\"ts\":";
    out += json_number(static_cast<double>(e.ts));
    if (e.phase == 'X') {
      out += ",\"dur\":";
      out += json_number(static_cast<double>(e.dur));
    }
    out += ",\"pid\":";
    out += json_number(static_cast<double>(pid));
    out += ",\"tid\":";
    out += json_number(static_cast<double>(e.tid));
    if (!e.num_args.empty() || !e.str_args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : e.num_args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"";
        out += json_escape(k);
        out += "\":";
        out += json_number(v);
      }
      for (const auto& [k, v] : e.str_args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"";
        out += json_escape(k);
        out += "\":\"";
        out += json_escape(v);
        out += "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace dagsfc::util
