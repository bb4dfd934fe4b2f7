#pragma once
/// \file flags.hpp
/// Minimal command-line flag parsing for the bench and example binaries.
/// Supports --name=value and --name value forms, plus bare --flag for bools,
/// and typed accessors including durations ("250ms", "10s") and a shared
/// --workers helper that resolves 0 to the hardware concurrency.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dagsfc {

/// Parses a human-readable duration: a non-negative decimal number followed
/// by a unit suffix — ns, us, ms, s, m (minutes), or h. The unit is
/// mandatory ("250ms", "1.5s", "10m"); a bare number, unknown suffix,
/// negative value, or trailing garbage throws std::invalid_argument.
[[nodiscard]] std::chrono::nanoseconds parse_duration(const std::string& text);

class Flags {
 public:
  /// Registers a flag with a default and a help string. Returns *this so
  /// registrations chain.
  Flags& define(const std::string& name, const std::string& default_value,
                const std::string& help);
  Flags& define_int(const std::string& name, std::int64_t default_value,
                    const std::string& help);
  Flags& define_double(const std::string& name, double default_value,
                       const std::string& help);
  Flags& define_bool(const std::string& name, bool default_value,
                     const std::string& help);
  /// Duration-valued flag; the default is given in flag syntax ("250ms").
  Flags& define_duration(const std::string& name,
                         const std::string& default_value,
                         const std::string& help);
  /// Registers the standard `--workers` flag (0 = hardware concurrency),
  /// shared by dagsfc_serve and bench_serve_throughput.
  Flags& define_workers(std::int64_t default_value = 0);
  /// Registers the standard `--log-level` flag (debug|info|warn|error|off;
  /// empty = keep the DAGSFC_LOG_LEVEL / built-in default).
  Flags& define_log_level();

  /// Parses argv. Throws std::invalid_argument on unknown flags or malformed
  /// values. Recognizes --help by setting help_requested().
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  [[nodiscard]] std::string usage(const std::string& program) const;

  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// A non-negative integer flag (trials, threads, sizes, repetitions):
  /// get_int() with negative values rejected by std::invalid_argument
  /// ("flag --<name> must be >= 0") instead of wrapping to a huge size_t.
  [[nodiscard]] std::size_t get_count(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] std::chrono::nanoseconds get_duration(
      const std::string& name) const;
  /// Resolved worker count: the --workers value, with 0 mapped to
  /// std::thread::hardware_concurrency() (at least 1). Negative throws.
  [[nodiscard]] std::size_t get_workers() const;
  /// Applies --log-level via set_log_level() when non-empty; a value
  /// outside the vocabulary throws std::invalid_argument.
  void apply_log_level() const;

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
  };
  const Entry& entry(const std::string& name) const;

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
  bool help_ = false;
};

}  // namespace dagsfc
