#include "util/flags.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/log.hpp"

namespace dagsfc {

std::chrono::nanoseconds parse_duration(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("empty duration");
  }
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed duration: " + text);
  }
  if (pos == 0 || pos >= text.size()) {
    throw std::invalid_argument("duration needs a unit suffix (ns/us/ms/s/m/h): " +
                                text);
  }
  if (value < 0.0 || !std::isfinite(value)) {
    throw std::invalid_argument("duration must be non-negative: " + text);
  }
  const std::string unit = text.substr(pos);
  double ns = 0.0;
  if (unit == "ns") {
    ns = value;
  } else if (unit == "us") {
    ns = value * 1e3;
  } else if (unit == "ms") {
    ns = value * 1e6;
  } else if (unit == "s") {
    ns = value * 1e9;
  } else if (unit == "m") {
    ns = value * 60e9;
  } else if (unit == "h") {
    ns = value * 3600e9;
  } else {
    throw std::invalid_argument("unknown duration unit '" + unit +
                                "' in: " + text);
  }
  return std::chrono::nanoseconds(static_cast<std::int64_t>(std::llround(ns)));
}

Flags& Flags::define(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  auto [it, inserted] =
      entries_.emplace(name, Entry{default_value, default_value, help});
  if (!inserted) {
    throw std::invalid_argument("duplicate flag: --" + name);
  }
  order_.push_back(name);
  return *this;
}

Flags& Flags::define_int(const std::string& name, std::int64_t default_value,
                         const std::string& help) {
  return define(name, std::to_string(default_value), help);
}

Flags& Flags::define_double(const std::string& name, double default_value,
                            const std::string& help) {
  std::ostringstream os;
  os << default_value;
  return define(name, os.str(), help);
}

Flags& Flags::define_bool(const std::string& name, bool default_value,
                          const std::string& help) {
  return define(name, default_value ? "true" : "false", help);
}

Flags& Flags::define_duration(const std::string& name,
                              const std::string& default_value,
                              const std::string& help) {
  (void)parse_duration(default_value);  // defaults must themselves parse
  return define(name, default_value, help);
}

Flags& Flags::define_workers(std::int64_t default_value) {
  return define_int("workers", default_value,
                    "solver worker threads (0 = hardware concurrency)");
}

Flags& Flags::define_log_level() {
  return define("log-level", "",
                "stderr log level: debug|info|warn|error|off (empty = keep "
                "the DAGSFC_LOG_LEVEL / built-in default)");
}

void Flags::apply_log_level() const {
  const std::string& v = entry("log-level").value;
  if (v.empty()) return;
  const std::optional<LogLevel> level = parse_log_level(v);
  if (!level) {
    throw std::invalid_argument(
        "flag --log-level must be debug|info|warn|error|off, got: " + v);
  }
  set_log_level(*level);
}

void Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg.erase(0, 2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        throw std::invalid_argument("unknown flag: --" + name);
      }
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else {
        if (i + 1 >= argc) {
          throw std::invalid_argument("missing value for --" + name);
        }
        value = argv[++i];
      }
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    it->second.value = value;
  }
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  --" << name << " (default: " << e.default_value << ")\n      "
       << e.help << '\n';
  }
  return os.str();
}

const Flags::Entry& Flags::entry(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("flag not defined: --" + name);
  }
  return it->second;
}

const std::string& Flags::get(const std::string& name) const {
  return entry(name).value;
}

std::int64_t Flags::get_int(const std::string& name) const {
  const std::string& v = entry(name).value;
  std::size_t pos = 0;
  const std::int64_t out = std::stoll(v, &pos);
  if (pos != v.size()) {
    throw std::invalid_argument("flag --" + name + " is not an integer: " + v);
  }
  return out;
}

double Flags::get_double(const std::string& name) const {
  const std::string& v = entry(name).value;
  std::size_t pos = 0;
  const double out = std::stod(v, &pos);
  if (pos != v.size()) {
    throw std::invalid_argument("flag --" + name + " is not a number: " + v);
  }
  return out;
}

bool Flags::get_bool(const std::string& name) const {
  const std::string& v = entry(name).value;
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::invalid_argument("flag --" + name + " is not a boolean: " + v);
}

std::chrono::nanoseconds Flags::get_duration(const std::string& name) const {
  try {
    return parse_duration(entry(name).value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --" + name + ": " + e.what());
  }
}

std::size_t Flags::get_count(const std::string& name) const {
  const std::int64_t n = get_int(name);
  if (n < 0) {
    throw std::invalid_argument("flag --" + name + " must be >= 0");
  }
  return static_cast<std::size_t>(n);
}

std::size_t Flags::get_workers() const {
  const std::size_t n = get_count("workers");
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace dagsfc
