#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace bbsmine {

namespace {

std::string Quote(const std::string& text) { return "\"" + text + "\""; }

std::string FormatDouble(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::to_string(v);
}

/// "[min, max]", or "(min, max]" ("..." as max: unbounded). Built by
/// appending: GCC 12 misreports `"literal" + std::string&&` (-Wrestrict).
std::string RangeText(const std::string& min, const std::string& max,
                      bool min_exclusive = false) {
  std::string text(min_exclusive ? "(" : "[");
  text.append(min).append(", ").append(max).append("]");
  return text;
}

Status BadValue(const std::string& name, const std::string& text,
                const std::string& why) {
  return Status::InvalidArgument("--" + name + ": " + Quote(text) + " " + why);
}

}  // namespace

Status ParseUnsignedText(std::string_view text, uint64_t min, uint64_t max,
                         uint64_t* out) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  const std::string quoted = Quote(std::string(text));
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && ptr == end && (v < min || v > max))) {
    return Status::InvalidArgument(
        quoted + " is out of range " +
        RangeText(std::to_string(min), std::to_string(max)));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(quoted + " is not an unsigned integer");
  }
  *out = v;
  return Status::Ok();
}

FlagSet::FlagSet(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void FlagSet::Bool(std::string name, bool* dest, std::string help) {
  Add({.name = std::move(name),
       .help = std::move(help),
       .default_text = *dest ? "true" : "",
       .bool_dest = dest});
}

void FlagSet::String(std::string name, std::string* dest, std::string help,
                     Presence presence) {
  Add({.name = std::move(name),
       .help = std::move(help),
       .value_name = "S",
       .default_text = *dest,
       .required = presence == kRequired,
       .assign = [dest](const std::string& text) {
         *dest = text;
         return Status::Ok();
       }});
}

void FlagSet::Choice(std::string name, std::string* dest, std::string help,
                     std::vector<std::string> choices) {
  std::string list;
  for (const std::string& choice : choices) {
    list += (list.empty() ? "" : "|") + choice;
  }
  Add({.name = name,
       .help = std::move(help),
       .value_name = list,
       .default_text = *dest,
       .assign = [dest, name, list, choices = std::move(choices)](
                     const std::string& text) {
         for (const std::string& choice : choices) {
           if (text == choice) {
             *dest = text;
             return Status::Ok();
           }
         }
         return BadValue(name, text, "is not one of " + list);
       }});
}

void FlagSet::AddUnsigned(std::string name, std::string help,
                          uint64_t initial, uint64_t min, uint64_t max,
                          uint64_t type_max,
                          std::function<void(uint64_t)> store) {
  // The help shows only bounds narrower than the destination type's.
  std::string range_text;
  if (max != type_max) {
    range_text = RangeText(std::to_string(min), std::to_string(max));
  } else if (min != 0) {
    range_text = RangeText(std::to_string(min), "...");
  }
  Add({.name = name,
       .help = std::move(help),
       .value_name = "N",
       .default_text = std::to_string(initial),
       .range_text = std::move(range_text),
       .assign = [name, min, max,
                  store = std::move(store)](const std::string& text) {
         uint64_t v = 0;
         if (Status parsed = ParseUnsignedText(text, min, max, &v);
             !parsed.ok()) {
           return Status::InvalidArgument("--" + name + ": " +
                                          parsed.message());
         }
         store(v);
         return Status::Ok();
       }});
}

void FlagSet::Double(std::string name, double* dest, std::string help,
                     DoubleFlagRange range) {
  const std::string range_text = RangeText(
      FormatDouble(range.min), FormatDouble(range.max), range.min_exclusive);
  const bool bounded = std::isfinite(range.min) || std::isfinite(range.max);
  Add({.name = name,
       .help = std::move(help),
       .value_name = "F",
       .default_text = FormatDouble(*dest),
       .range_text = bounded ? range_text : "",
       .assign = [dest, name, range, range_text](const std::string& text) {
         double v = 0;
         const char* end = text.data() + text.size();
         auto [ptr, ec] = std::from_chars(text.data(), end, v);
         if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
           return BadValue(name, text, "is not a finite number");
         }
         if (v < range.min || (range.min_exclusive && v == range.min) ||
             v > range.max) {
           return BadValue(name, text, "is out of range " + range_text);
         }
         *dest = v;
         return Status::Ok();
       }});
}

Status FlagSet::Parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::Ok();
    }
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      return Status::InvalidArgument("unexpected argument " + Quote(arg));
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name +
                                     " (see --help)");
    }
    flag->set = true;
    if (flag->bool_dest != nullptr) {
      if (eq != std::string::npos) {
        return Status::InvalidArgument("--" + name + " takes no value, got " +
                                       Quote(arg.substr(eq + 1)));
      }
      *flag->bool_dest = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      return Status::InvalidArgument("--" + name + " needs a value");
    }
    BBSMINE_RETURN_IF_ERROR(flag->assign(value));
  }
  for (const Flag& flag : flags_) {
    if (flag.required && !flag.set) {
      return Status::InvalidArgument("missing required flag --" + flag.name);
    }
  }
  return Status::Ok();
}

void FlagSet::ParseOrExit(int argc, char** argv, int first) {
  if (Status parsed = Parse(argc, argv, first); !parsed.ok()) {
    UsageError(parsed.message());
  }
  if (help_requested_) {
    std::fputs(Help().c_str(), stdout);
    std::exit(0);
  }
}

bool FlagSet::WasSet(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return flag.set;
  }
  return false;
}

std::string FlagSet::Help() const {
  std::string out =
      "usage: " + program_ + " [--flag value | --flag=value ...]\n";
  if (!summary_.empty()) out += summary_ + "\n";
  for (const Flag& flag : flags_) {
    std::string notes;
    if (flag.required) {
      notes = "required";
    } else if (!flag.default_text.empty()) {
      notes = "default " + flag.default_text;
    }
    if (!flag.range_text.empty()) {
      notes.append(notes.empty() ? "" : "; ").append("range ");
      notes += flag.range_text;
    }
    out += "  --" + flag.name;
    if (!flag.value_name.empty()) out += " " + flag.value_name;
    if (!notes.empty()) out += "  (" + notes + ")";
    out += "\n      " + flag.help + "\n";
  }
  return out;
}

void FlagSet::UsageError(const std::string& message) const {
  std::cerr << program_ << ": " << message << "\n";
  std::exit(2);
}

}  // namespace bbsmine
