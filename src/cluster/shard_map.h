// The cluster topology: an ordered list of shard endpoints.
//
// Shards partition the global database by transaction range: shard 0 holds
// the first contiguous block of transactions, shard 1 the next, and so on
// (`bbsmine split` cuts a database this way). Order is load-bearing twice
// over — the router's merge reduces per-shard results in shard order so
// answers are deterministic, and INSERT always routes to the last shard
// (the tail of the range partition) so the range invariant survives
// writes.
//
// Two spec formats, both producing the same ShardMap:
//   * inline:  "host:port[/host:port],..."        (--shards flag)
//   * file:    one "host:port[/host:port]" per line, '#' comments and
//              blank lines ignored                (--shard-map flag)
//
// The optional "/host:port" suffix names the shard's warm replica (a
// bbsmined started with --follow pointing at the primary). The router
// probes and promotes it when the primary dies (router.h, "Failover").

#ifndef BBSMINE_CLUSTER_SHARD_MAP_H_
#define BBSMINE_CLUSTER_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/socket.h"
#include "util/status.h"

namespace bbsmine::cluster {

/// One shard: its primary endpoint plus an optional warm replica.
struct ShardEntry {
  Endpoint primary;
  bool has_replica = false;
  Endpoint replica;

  /// Renders the spec form: "host:port" or "host:port/host:port".
  std::string ToString() const {
    return has_replica ? primary.ToString() + "/" + replica.ToString()
                       : primary.ToString();
  }
};

struct ShardMap {
  std::vector<ShardEntry> shards;

  size_t size() const { return shards.size(); }
  bool empty() const { return shards.empty(); }
};

/// Parses one "host:port[/host:port]" shard entry.
Result<ShardEntry> ParseShardEntry(const std::string& spec);

/// Parses the inline comma-separated form.
Result<ShardMap> ParseShardSpec(const std::string& spec);

/// Loads the file form (one endpoint per line; '#' comments).
Result<ShardMap> LoadShardMapFile(const std::string& path);

}  // namespace bbsmine::cluster

#endif  // BBSMINE_CLUSTER_SHARD_MAP_H_
