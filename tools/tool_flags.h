// Flags that more than one tool accepts, each declared by one helper so
// its name, help line and range are the same everywhere.

#ifndef BBSMINE_TOOLS_TOOL_FLAGS_H_
#define BBSMINE_TOOLS_TOOL_FLAGS_H_

#include <cstdint>
#include <string>

#include "service/client.h"
#include "util/flags.h"

namespace bbsmine {

/// --host / --port; the uint16_t destination bounds the port to 0..65535.
inline void AddHostPortFlags(FlagSet* flags, std::string* host,
                             uint16_t* port) {
  flags->String("host", host, "IPv4 address to bind or connect to");
  flags->Unsigned("port", port, "TCP port (0: a daemon picks one)");
}

inline void AddIndexBackendFlag(FlagSet* flags, std::string* backend) {
  flags->Choice("index-backend", backend,
                "heap slices verified at load, or the file served in place",
                {"resident", "mmap"});
}

/// --minsup, bounded like the MINE wire field.
inline void AddMinsupFlag(FlagSet* flags, double* minsup) {
  flags->Double("minsup", minsup, "minimum support, a fraction",
                {.min = 0, .max = 1, .min_exclusive = true});
}

/// The backpressure retry policy.
inline void AddRetryFlags(FlagSet* flags, service::RetryOptions* retry) {
  flags->Unsigned("retries", &retry->retries, "retries on backpressure");
  flags->Unsigned("backoff-ms", &retry->backoff_ms, "base retry backoff, ms");
  flags->Unsigned("max-backoff-ms", &retry->max_backoff_ms, "backoff cap, ms");
}

/// --stats-window-s; the bound keeps seconds * 1e6 from overflowing.
inline void AddStatsWindowFlag(FlagSet* flags, uint64_t* seconds) {
  flags->Unsigned("stats-window-s", seconds,
                  "metrics window rotation, s (12 kept)", 1,
                  UINT64_MAX / 1'000'000);
}

}  // namespace bbsmine

#endif  // BBSMINE_TOOLS_TOOL_FLAGS_H_
