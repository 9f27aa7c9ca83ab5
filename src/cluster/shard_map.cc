#include "cluster/shard_map.h"

#include <fstream>
#include <sstream>

namespace bbsmine::cluster {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

Result<ShardEntry> ParseShardEntry(const std::string& spec) {
  ShardEntry entry;
  size_t slash = spec.find('/');
  if (slash == std::string::npos) {
    Result<Endpoint> primary = ParseEndpoint(spec);
    if (!primary.ok()) return primary.status();
    entry.primary = std::move(*primary);
    return entry;
  }
  Result<Endpoint> primary = ParseEndpoint(Trim(spec.substr(0, slash)));
  if (!primary.ok()) return primary.status();
  Result<Endpoint> replica = ParseEndpoint(Trim(spec.substr(slash + 1)));
  if (!replica.ok()) return replica.status();
  entry.primary = std::move(*primary);
  entry.has_replica = true;
  entry.replica = std::move(*replica);
  return entry;
}

Result<ShardMap> ParseShardSpec(const std::string& spec) {
  ShardMap map;
  std::stringstream stream(spec);
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    entry = Trim(entry);
    if (entry.empty()) continue;
    Result<ShardEntry> parsed = ParseShardEntry(entry);
    if (!parsed.ok()) return parsed.status();
    map.shards.push_back(std::move(*parsed));
  }
  if (map.empty()) {
    return Status::InvalidArgument("shard spec names no endpoints: \"" + spec +
                                   "\"");
  }
  return map;
}

Result<ShardMap> LoadShardMapFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open shard map file: " + path);
  }
  ShardMap map;
  std::string line;
  while (std::getline(file, line)) {
    size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;
    Result<ShardEntry> parsed = ParseShardEntry(line);
    if (!parsed.ok()) return parsed.status();
    map.shards.push_back(std::move(*parsed));
  }
  if (map.empty()) {
    return Status::InvalidArgument("shard map file names no endpoints: " +
                                   path);
  }
  return map;
}

}  // namespace bbsmine::cluster
