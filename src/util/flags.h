// Table-driven command-line flags, shared by every tool.
//
// A tool declares each flag once on a FlagSet: its name, a typed
// destination whose initial value is the default, a help line and, for
// numbers, an optional range. Parse fills the destinations from argv and
// rejects anything it cannot honor exactly — an unknown flag, a missing
// value, a value given to a bool flag, a malformed, signed, overflowing or
// out-of-range number, a positional argument, an absent required flag —
// so a typo can never run as a different experiment. Help() is generated
// from the same declarations, so the listed defaults cannot drift.
//
// Syntax: `--name value` or `--name=value`; a bool flag is a bare
// `--name` and takes no value. `--help` (or `-h`) asks for the help text.
// A flag given twice keeps its last value.

#ifndef BBSMINE_UTIL_FLAGS_H_
#define BBSMINE_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace bbsmine {

/// Parses decimal digits only — no sign, space or suffix — into a value
/// in [min, max]. The error message quotes the text.
Status ParseUnsignedText(std::string_view text, uint64_t min, uint64_t max,
                         uint64_t* out);

/// Bounds on a double flag, inclusive unless `min_exclusive`, e.g. (0, 1]
/// for a support fraction.
struct DoubleFlagRange {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
};

class FlagSet {
 public:
  enum Presence { kOptional, kRequired };

  /// `program` names the tool (and subcommand) in help and error lines,
  /// e.g. "bbsmine mine"; `summary` follows the help's usage line.
  explicit FlagSet(std::string program, std::string summary = "");

  FlagSet(const FlagSet&) = delete;
  FlagSet& operator=(const FlagSet&) = delete;

  void Bool(std::string name, bool* dest, std::string help);
  void String(std::string name, std::string* dest, std::string help,
              Presence presence = kOptional);
  /// A string restricted to `choices` (listed in the help).
  void Choice(std::string name, std::string* dest, std::string help,
              std::vector<std::string> choices);
  /// A non-negative integer into any integer destination. The range
  /// defaults to the destination type's, so a value that would not fit is
  /// rejected rather than truncated.
  template <typename T>
  void Unsigned(std::string name, T* dest, std::string help, uint64_t min = 0,
                uint64_t max = std::numeric_limits<T>::max()) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    AddUnsigned(std::move(name), std::move(help), static_cast<uint64_t>(*dest),
                min, max, std::numeric_limits<T>::max(),
                [dest](uint64_t v) { *dest = static_cast<T>(v); });
  }
  void Double(std::string name, double* dest, std::string help,
              DoubleFlagRange range = {});

  /// Parses argv[first, argc). Stops at `--help`/`-h`, setting
  /// help_requested(). Errors are InvalidArgument naming the flag and the
  /// offending text.
  Status Parse(int argc, const char* const* argv, int first);

  /// Parse for main(): on `--help` prints Help() to stdout and exits 0; on
  /// an error prints "<program>: <message>" to stderr and exits 2.
  void ParseOrExit(int argc, char** argv, int first);

  /// True when the flag appeared on the command line (even with a value
  /// equal to its default).
  bool WasSet(std::string_view name) const;
  bool help_requested() const { return help_requested_; }

  /// Usage line, summary, and every flag with its default and range.
  std::string Help() const;

  /// Reports a usage error the declarations cannot express (a rule
  /// between flags) exactly like a parse error: one line, exit 2.
  [[noreturn]] void UsageError(const std::string& message) const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string value_name = {};  // empty for a bool flag
    std::string default_text = {};
    std::string range_text = {};
    bool required = false;
    bool set = false;
    bool* bool_dest = nullptr;                              // bool flags
    std::function<Status(const std::string&)> assign = {};  // valued flags
  };

  void Add(Flag flag) { flags_.push_back(std::move(flag)); }
  void AddUnsigned(std::string name, std::string help, uint64_t initial,
                   uint64_t min, uint64_t max, uint64_t type_max,
                   std::function<void(uint64_t)> store);

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_FLAGS_H_
