#include "traced.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "baseline/eclat.h"
#include "cluster/bloofi_tree.h"
#include "cluster/merge.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "core/bbs_index.h"
#include "core/bloom_hash.h"
#include "core/miner.h"
#include "core/segmented_bbs.h"
#include "datasets.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/durability.h"
#include "service/flight_recorder.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "service/wire.h"
#include "storage/transaction_db.h"
#include "workload.h"

namespace pbench {

using bbsmine::BbsIndex;
using bbsmine::Itemset;
using bbsmine::TransactionDatabase;
using bbsmine::obs::JsonValue;
namespace service = bbsmine::service;
namespace cluster = bbsmine::cluster;

namespace {

// ---------------------------------------------------------------- spans --

struct Span {
  std::string name;
  uint64_t id = 0;  // request index of the "r<i>" trace id, or a sequence
  double start_us = 0;
  double end_us = 0;
  double dur() const { return end_us - start_us; }
};

/// In-memory span store; written out as a Chrome trace at the end.
class SpanLog {
 public:
  void Add(std::string name, uint64_t id, double start_us, double end_us) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), id, start_us, end_us});
  }

  /// Times `fn` as one span and returns its duration in microseconds.
  template <typename Fn>
  double Time(const std::string& name, Fn&& fn) {
    const double start = NowUs();
    fn();
    const double end = NowUs();
    Add(name, seq_++, start, end);
    return end - start;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  void WriteChromeTrace(const std::string& path) const {
    if (path.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \""
          << bbsmine::obs::JsonEscape(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start_us
          << ", \"dur\": " << s.dur() << ", \"args\": {\"id\": " << s.id
          << "}}";
    }
    out << "\n]}\n";
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t seq_ = 0;         // Time() callers are single-threaded
};

uint64_t TraceIndex(const JsonValue& request) {
  const JsonValue& id = request.at("trace_id");
  if (id.kind() != JsonValue::Kind::kString || id.AsString().size() < 2 ||
      id.AsString()[0] != 'r') {
    return UINT64_MAX;
  }
  return std::strtoull(id.AsString().c_str() + 1, nullptr, 10);
}

std::string Lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(c));
  return text;
}

/// The benchmark-owned handler in front of a BbsService or RouterService: it
/// records one span per request around the wrapped Handle, named
/// "<prefix>.<verb>" and keyed by the request's trace id. With a null log
/// it only forwards.
class TimingHandler : public service::RequestHandler {
 public:
  TimingHandler(service::RequestHandler* inner, std::string prefix,
                SpanLog* log)
      : inner_(inner), prefix_(std::move(prefix)), log_(log) {}

  JsonValue Handle(const JsonValue& request,
                   const service::RequestContext& ctx) override {
    if (log_ == nullptr) return inner_->Handle(request, ctx);
    const double start = NowUs();
    JsonValue response = inner_->Handle(request, ctx);
    const double end = NowUs();
    const JsonValue& verb = request.at("verb");
    log_->Add(prefix_ + "." +
                  Lower(verb.kind() == JsonValue::Kind::kString
                            ? verb.AsString()
                            : "unknown"),
              TraceIndex(request), start, end);
    return response;
  }

  service::ServiceMetrics& metrics() override { return inner_->metrics(); }
  service::FlightRecorder* flight_recorder() const override {
    return inner_->flight_recorder();
  }
  void AttachConnectionCounter(const std::atomic<uint64_t>* counter) override {
    inner_->AttachConnectionCounter(counter);
  }

 private:
  service::RequestHandler* inner_;
  std::string prefix_;
  SpanLog* log_;
};

/// Spans the service's own tracer recorded, indexed for lookup.
struct ServiceSpans {
  std::map<uint64_t, double> queue_wait_us;  // by request index
  std::map<uint64_t, uint64_t> batch_of;     // request index -> batch id
  std::map<uint64_t, double> batch_us;       // by batch id
  std::map<uint64_t, uint64_t> batch_size;   // by batch id
};

ServiceSpans ReadServiceSpans(const bbsmine::obs::Tracer& tracer) {
  ServiceSpans out;
  JsonValue doc = Unwrap(JsonValue::Parse(tracer.ToJsonString()),
                         "parse service trace");
  const JsonValue& events = doc.at("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string name = event.at("name").AsString();
    const JsonValue& args = event.at("args");
    const double dur = event.at("dur").AsDouble();
    if (name == "count.queue_wait") {
      const uint64_t id = TraceIndex(args);
      out.queue_wait_us[id] = dur;
      out.batch_of[id] = args.at("batch").AsUint();
    } else if (name == "count.batch") {
      out.batch_us[args.at("batch").AsUint()] = dur;
      out.batch_size[args.at("batch").AsUint()] = args.at("size").AsUint();
    }
  }
  return out;
}

std::map<uint64_t, Span> SpansNamed(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::map<uint64_t, Span> out;
  for (const Span& span : spans) {
    if (span.name == name && span.id != UINT64_MAX) out[span.id] = span;
  }
  return out;
}

std::vector<double> Durations(const std::map<uint64_t, Span>& spans) {
  std::vector<double> out;
  for (const auto& entry : spans) out.push_back(entry.second.dur());
  return out;
}

template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> values;
  for (int r = 0; r < reps; ++r) values.push_back(fn());
  return Median(values);
}

// -------------------------------------------------------- JSON replay --

struct JsonCosts {
  double parse_us = 0;      // request + response parse, per COUNT exchange
  double serialize_us = 0;  // request + response serialize, per exchange
};

/// Times obs::JsonValue::Parse / Serialize on real COUNT request/response
/// documents (both ends of one exchange parse one and serialize one).
JsonCosts ReplayJson(const std::vector<std::pair<JsonValue, JsonValue>>& docs,
                     SpanLog* log) {
  std::vector<double> parse;
  std::vector<double> serialize;
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto& [request, response] : docs) {
      double start = NowUs();
      std::string request_text = request.Serialize(0);
      std::string response_text = response.Serialize(0);
      double mid = NowUs();
      auto a = JsonValue::Parse(request_text);
      auto b = JsonValue::Parse(response_text);
      double end = NowUs();
      if (!a.ok() || !b.ok()) continue;
      serialize.push_back(mid - start);
      parse.push_back(end - mid);
    }
  }
  log->Add("obs.json_serialize", 0, 0, Median(serialize));
  log->Add("obs.json_parse", 0, 0, Median(parse));
  return {Median(parse), Median(serialize)};
}

/// COUNT request/response pairs fetched over a fresh session.
std::vector<std::pair<JsonValue, JsonValue>> FetchCountDocs(
    ServeKind kind, const std::vector<TrafficRequest>& schedule,
    uint16_t port) {
  std::vector<std::pair<JsonValue, JsonValue>> docs;
  service::ClientSession session("127.0.0.1", port);
  for (const TrafficRequest& request : schedule) {
    if (request.verb != TrafficVerb::kCount) continue;
    JsonValue doc = BuildRequest(kind, request, "");
    auto response = session.Call(doc);
    if (response.ok()) docs.emplace_back(std::move(doc), std::move(*response));
    if (docs.size() >= 200) break;
  }
  return docs;
}

/// Client-side spans of the traced load, keyed like the server spans: the
/// wait for a free connection and ClientSession::Call.
void LogClientSpans(SpanLog* log, const std::vector<Sample>& samples) {
  for (size_t i = 0; i < samples.size(); ++i) {
    log->Add("gen.wait", i, samples[i].due_us, samples[i].sent_us);
    log->Add("client.ClientSession::Call", i, samples[i].sent_us,
             samples[i].done_us);
  }
}

double CountP50(const std::vector<Sample>& samples) {
  return Summarize(samples, TrafficVerb::kCount).p50_us;
}

// ------------------------------------------------------ metric output --

struct Output {
  JsonValue metrics = JsonValue::Object();
  JsonValue info = JsonValue::Object();
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Metric(const std::string& name, double value, const std::string& unit) {
    PutMetric(&metrics, name, value, unit);
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "pbench traced: check failed: %s\n", what.c_str());
    }
  }
  void AddSamples(const std::vector<Sample>& samples) {
    for (const Sample& sample : samples) Check(sample.ok, "request answer");
  }
};

/// The attribution table of COUNT: rows of mean self time along the
/// blocking path plus an explicit unattributed residual, which together
/// equal the mean client latency (measured from the due time).
void Attribute(Output* out, double client_mean_us,
               const std::vector<std::pair<std::string, double>>& rows) {
  JsonValue table = JsonValue::Object();
  double sum = 0;
  for (const auto& [name, value] : rows) {
    table.Set(name, JsonValue::Double(value));
    sum += value;
  }
  const double unattributed = client_mean_us - sum;
  table.Set("unattributed", JsonValue::Double(unattributed));
  table.Set("client_mean_us", JsonValue::Double(client_mean_us));
  out->info.Set("count_attribution_us", std::move(table));
  // Every row is a measured span, so the residual must be a non-negative
  // remainder (network, frame I/O, client work), not an accounting error.
  out->Check(unattributed >= -0.1 * client_mean_us &&
                 unattributed <= client_mean_us,
             "COUNT attribution adds up to the client mean");
}

// -------------------------------------------------------- mine-paper --

void TracedMinePaper(const Args& args, SpanLog* log, Output* out) {
  const std::string db_path = args.Require("db");
  const std::string index_path = args.Require("index");
  const uint32_t par_threads = static_cast<uint32_t>(DefaultConnections());
  const uint64_t pinned = args.Uint("patterns", 0);
  const double minsup = args.Double("minsup", 0.003);

  std::optional<TransactionDatabase> db;
  const double db_load_s = MedianOf(3, [&] {
    return log->Time("storage.TransactionDatabase::Load", [&] {
             db.emplace(Unwrap(TransactionDatabase::Load(db_path), "load db"));
           }) / 1e6;
  });
  std::optional<BbsIndex> bbs;
  const double index_load_s = MedianOf(3, [&] {
    return log->Time("core.BbsIndex::Load", [&] {
             bbs.emplace(Unwrap(BbsIndex::Load(index_path), "load index"));
           }) / 1e6;
  });
  out->Metric("storage.db_load_s", db_load_s, "s");
  out->Metric("core.index_load_s", index_load_s, "s");

  // CountItemSet on 2-item queries over the 100 most frequent items.
  std::vector<bbsmine::ItemId> top = RankItemsByFrequency(*db);
  top.resize(std::min<size_t>(top.size(), 100));
  std::vector<Itemset> queries;
  for (size_t a = 0; a < top.size(); ++a) {
    for (size_t b = a + 1; b < top.size(); ++b) {
      Itemset items = {top[a], top[b]};
      bbsmine::Canonicalize(&items);
      queries.push_back(std::move(items));
    }
  }
  uint64_t sink = 0;
  const double count_ns = MedianOf(3, [&] {
    return log->Time("core.BbsIndex::CountItemSet x" +
                         std::to_string(queries.size()),
                     [&] {
                       for (const Itemset& q : queries) {
                         sink += bbs->CountItemSet(q);
                       }
                     }) *
           1e3 / static_cast<double>(queries.size());
  });
  out->Metric("core.countitemset_ns", count_ns, "ns");
  out->info.Set("countitemset_checksum", JsonValue::Uint(sink));
  // Slice words the blocked AND loop streams per threshold test at the
  // mining tau (the filter's early-abort form of CountItemSet).
  bbsmine::IoStats io;
  const uint64_t tau = bbsmine::AbsoluteThreshold(minsup, db->size());
  for (const Itemset& q : queries) bbs->CountItemSetAtLeast(q, tau, nullptr, &io);
  out->Metric("util.slice_words_per_test",
              static_cast<double>(io.slice_words_touched) /
                  static_cast<double>(std::max<size_t>(queries.size(), 1)),
              "words");

  auto mine = [&](bbsmine::Algorithm algorithm, uint32_t threads,
                  bbsmine::obs::Tracer* tracer, const std::string& name) {
    bbsmine::MineConfig config;
    config.min_support = minsup;
    config.algorithm = algorithm;
    config.num_threads = threads;
    config.tracer = tracer;
    bbsmine::MiningResult result;
    log->Time(name, [&] {
      result = bbsmine::MineFrequentPatterns(*db, *bbs, config);
    });
    result.SortPatterns();
    return result;
  };
  // Tracing overhead: DFP with and without the miner's own tracer armed,
  // alternating, three each.
  bbsmine::MiningResult plain;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (int rep = 0; rep < 3; ++rep) {
    plain = mine(bbsmine::Algorithm::kDFP, 1, nullptr,
                 "core.MineFrequentPatterns DFP untraced");
    plain_s.push_back(plain.stats.total_seconds);
    bbsmine::obs::Tracer tracer;
    traced_s.push_back(mine(bbsmine::Algorithm::kDFP, 1, &tracer,
                            "core.MineFrequentPatterns DFP traced")
                           .stats.total_seconds);
  }
  bbsmine::obs::Tracer tracer_dfp;
  bbsmine::obs::Tracer tracer_sfp;
  bbsmine::obs::Tracer tracer_par;
  bbsmine::MiningResult dfp = mine(bbsmine::Algorithm::kDFP, 1, &tracer_dfp,
                                   "core.MineFrequentPatterns DFP");
  bbsmine::MiningResult sfp = mine(bbsmine::Algorithm::kSFP, 1, &tracer_sfp,
                                   "core.MineFrequentPatterns SFP");
  bbsmine::MiningResult par =
      mine(bbsmine::Algorithm::kDFP, par_threads, &tracer_par,
           "core.MineFrequentPatterns DFP par");

  auto same_itemsets = [](const bbsmine::MiningResult& a,
                          const bbsmine::MiningResult& b) {
    if (a.patterns.size() != b.patterns.size()) return false;
    for (size_t i = 0; i < a.patterns.size(); ++i) {
      if (a.patterns[i].items != b.patterns[i].items) return false;
    }
    return true;
  };
  out->Check(same_itemsets(dfp, sfp), "DFP and SFP mine the same itemsets");
  out->Check(dfp.patterns == par.patterns,
             "parallel DFP is identical to serial DFP");
  out->Check(dfp.patterns == plain.patterns, "tracing does not change DFP");
  out->Check(pinned == 0 || dfp.patterns.size() == pinned,
             "pattern count is the pinned " + std::to_string(pinned));

  const bbsmine::MineStats& d = dfp.stats;
  const bbsmine::MineStats& s = sfp.stats;
  const bbsmine::MineStats& p = par.stats;
  out->Metric("core.filter_s", d.filter_wall_seconds, "s");
  out->Metric("core.refine_s", s.refine_cpu_seconds, "s");
  out->Metric("core.extension_tests", static_cast<double>(d.extension_tests),
              "count");
  out->Metric("core.false_drop_ratio", sfp.FalseDropRatio(), "ratio");
  out->Metric("core.certified_ratio",
              d.candidates ? static_cast<double>(d.certified) /
                                 static_cast<double>(d.candidates)
                           : 0,
              "ratio");
  out->Metric("core.filter_parallelism",
              p.filter_wall_seconds > 0
                  ? p.filter_cpu_seconds / p.filter_wall_seconds
                  : 0,
              "ratio");
  out->Metric("storage.probed_txns", static_cast<double>(s.probed_transactions),
              "count");
  out->Metric("storage.cache_hit_ratio",
              s.cache_hits + s.cache_misses
                  ? static_cast<double>(s.cache_hits) /
                        static_cast<double>(s.cache_hits + s.cache_misses)
                  : 0,
              "ratio");
  out->Metric("trace.overhead_ratio",
              Median(traced_s) / std::max(Median(plain_s), 1e-9), "ratio");
  JsonValue counts = JsonValue::Object();
  counts.Set("patterns", JsonValue::Uint(dfp.patterns.size()));
  counts.Set("dfp_candidates", JsonValue::Uint(d.candidates));
  counts.Set("dfp_certified", JsonValue::Uint(d.certified));
  counts.Set("sfp_candidates", JsonValue::Uint(s.candidates));
  counts.Set("sfp_false_drops", JsonValue::Uint(s.false_drops));
  counts.Set("miner_trace_events",
             JsonValue::Uint(tracer_dfp.event_count() +
                             tracer_sfp.event_count() +
                             tracer_par.event_count()));
  out->info.Set("mining", std::move(counts));
}

// ----------------------------------------------------------- serve-rw --

/// One bbsmined assembled in-process exactly as tools/bbsmined_main.cpp
/// assembles a durable daemon (resident backend, fsync always).
struct DurableHost {
  TransactionDatabase db;
  std::unique_ptr<service::DurabilityManager> durability;
  std::optional<service::SnapshotManager> index;
  std::unique_ptr<bbsmine::obs::Tracer> tracer;
  std::unique_ptr<service::FlightRecorder> flight;
  std::unique_ptr<service::BbsService> service;
  std::unique_ptr<TimingHandler> handler;
  std::unique_ptr<service::SocketServer> server;

  DurableHost() = default;
  DurableHost(const DurableHost&) = delete;
  DurableHost& operator=(const DurableHost&) = delete;
  ~DurableHost() { Stop(); }

  void Stop() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Drain();
  }
};

std::unique_ptr<DurableHost> HostDurable(const Args& args,
                                         const std::string& dir,
                                         SpanLog* log) {
  auto host = std::make_unique<DurableHost>();
  bbsmine::SegmentedBbs bootstrap = Unwrap(
      bbsmine::SegmentedBbs::Load(args.Require("index")), "load index");
  host->db = Unwrap(TransactionDatabase::Load(args.Require("db")), "load db");
  service::DurabilityOptions durable;
  durable.dir = dir;
  durable.checkpoint_every = args.Uint("checkpoint-every", 256);
  DieIfError(service::ParseFsyncSpec("always", &durable.wal), "fsync spec");
  host->durability = Unwrap(
      service::DurabilityManager::Open(durable, std::move(bootstrap),
                                       &host->db),
      "durable open");
  bbsmine::SegmentedBbs recovered = host->durability->TakeRecoveredIndex();
  host->index.emplace(
      Unwrap(service::SnapshotManager::FromIndex(recovered), "snapshots"));

  service::ServiceOptions options;
  options.scheduler.num_threads = args.Uint("threads", 2);
  options.scheduler.max_pending = 1024;
  options.scheduler.max_batch = 256;
  options.durability = host->durability.get();
  options.slow_query_us = 10000;
  host->flight = std::make_unique<service::FlightRecorder>(64);
  options.flight_recorder = host->flight.get();
  if (log != nullptr) {
    host->tracer =
        std::make_unique<bbsmine::obs::Tracer>(bbsmine::obs::kTraceService);
    options.tracer = host->tracer.get();
    options.trace_sample = 1;
  }
  options.role = service::ServiceRole::kPrimary;
  host->service = std::make_unique<service::BbsService>(&*host->index,
                                                        &host->db, options);
  host->handler =
      std::make_unique<TimingHandler>(host->service.get(), "server", log);
  host->server = std::make_unique<service::SocketServer>(
      host->handler.get(), service::SocketServerOptions{});
  DieIfError(host->server->Start(), "server start");
  return host;
}

void TracedServeRw(const Args& args, SpanLog* log, Output* out) {
  const ServeKind kind = ServeKind::kServeRw;
  const std::string work = args.Require("work-dir");
  TransactionDatabase base =
      Unwrap(TransactionDatabase::Load(args.Require("db")), "load db");
  std::vector<bbsmine::ItemId> ranks = RankItemsByFrequency(base);
  std::vector<TrafficRequest> schedule =
      MakeSchedule(kind, ranks, args.Double("rate", 400),
                   args.Double("seconds", 6), args.Uint("seed", 1) * 1000);
  LoadTarget target;

  // Untraced pass: same hosting, no spans, no service tracer.
  double untraced_p50 = 0;
  {
    Oracle oracle = Oracle::ForServe(base);
    auto host = HostDurable(args, work + "/durable-untraced", nullptr);
    target.port = host->server->port();
    std::vector<Sample> samples = RunOpenLoop(kind, schedule, target, oracle);
    untraced_p50 = CountP50(samples);
    out->AddSamples(samples);
  }

  Oracle oracle = Oracle::ForServe(base);
  auto host = HostDurable(args, work + "/durable-traced", log);
  target.port = host->server->port();
  target.tag_trace_ids = true;
  std::vector<Sample> samples = RunOpenLoop(kind, schedule, target, oracle);
  out->AddSamples(samples);
  LogClientSpans(log, samples);
  const uint64_t checkpoints = host->durability->checkpoints();
  const uint64_t wal_appends = host->durability->wal_appends();
  const uint64_t wal_fsyncs = host->durability->wal_fsyncs();
  const uint64_t wal_bytes = host->durability->wal_bytes();
  out->Check(host->index->num_transactions() ==
                 base.size() + oracle.acked_inserts(),
             "every acknowledged INSERT is visible");
  std::vector<std::pair<JsonValue, JsonValue>> docs =
      FetchCountDocs(kind, schedule, host->server->port());
  host->Stop();
  const ServiceSpans service_spans = ReadServiceSpans(*host->tracer);

  // Layer replays on the same objects, after the load.
  std::vector<double> wal_us;
  std::vector<double> publish_us;
  for (const TrafficRequest& request : schedule) {
    if (request.verb != TrafficVerb::kInsert) continue;
    const double t0 = NowUs();
    DieIfError(host->durability->LogInsert({request.items}), "LogInsert");
    const double t1 = NowUs();
    DieIfError(host->index->Insert(request.items), "Insert");
    const double t2 = NowUs();
    host->db.Append(request.items);
    log->Add("wal.DurabilityManager::LogInsert", wal_us.size(), t0, t1);
    log->Add("snapshot.SnapshotManager::Insert", wal_us.size(), t1, t2);
    wal_us.push_back(t1 - t0);
    publish_us.push_back(t2 - t1);
    if (wal_us.size() >= 200) break;
  }
  const double checkpoint_ms = MedianOf(3, [&] {
    return log->Time("durability.DurabilityManager::Checkpoint", [&] {
             DieIfError(host->durability->Checkpoint(host->index->Acquire(),
                                                     &host->db),
                        "Checkpoint");
           }) / 1e3;
  });
  std::vector<double> snap_us;
  std::vector<double> snap_words;
  {
    service::Snapshot snap = host->index->Acquire();
    for (const TrafficRequest& request : schedule) {
      if (request.verb != TrafficVerb::kCount) continue;
      bbsmine::IoStats io;
      const double t0 = NowUs();
      snap.CountItemSet(request.items, &io);
      const double t1 = NowUs();
      snap_us.push_back(t1 - t0);
      snap_words.push_back(static_cast<double>(io.slice_words_touched));
    }
  }
  const double eclat_ms = MedianOf(3, [&] {
    bbsmine::EclatConfig config;
    config.min_support = ShapeOf(kind).mine_minsup;
    return log->Time("baseline.MineEclat",
                     [&] { bbsmine::MineEclat(host->db, config); }) /
           1e3;
  });
  const JsonCosts json = ReplayJson(docs, log);

  // Per-request spans of the traced load.
  const std::vector<Span> spans = log->spans();
  const auto handle_count = SpansNamed(spans, "server.count");
  const auto handle_insert = SpansNamed(spans, "server.insert");
  const auto handle_mine = SpansNamed(spans, "server.mine");
  std::vector<double> transport;
  std::vector<double> queue;
  std::vector<double> batch;
  std::vector<double> batch_sizes;
  std::vector<double> gen_wait, handle_self, latency;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples[i];
    if (sample.verb != TrafficVerb::kCount || !sample.ok) continue;
    auto h = handle_count.find(i);
    auto q = service_spans.queue_wait_us.find(i);
    if (h == handle_count.end() || q == service_spans.queue_wait_us.end()) {
      continue;
    }
    const uint64_t batch_id = service_spans.batch_of.at(i);
    const double b = service_spans.batch_us.count(batch_id)
                         ? service_spans.batch_us.at(batch_id)
                         : 0;
    transport.push_back(sample.done_us - sample.sent_us - h->second.dur());
    queue.push_back(q->second);
    batch.push_back(b);
    batch_sizes.push_back(static_cast<double>(
        service_spans.batch_size.count(batch_id)
            ? service_spans.batch_size.at(batch_id)
            : 1));
    latency.push_back(sample.latency_us());
    gen_wait.push_back(sample.sent_us - sample.due_us);
    handle_self.push_back(h->second.dur() - q->second - b);
  }
  out->Check(!latency.empty(), "traced COUNTs matched to service spans");

  const double handle_insert_us = Median(Durations(handle_insert));
  const double wal_median = Median(wal_us);
  const double publish_median = Median(publish_us);
  out->Metric("obs.json_parse_us", json.parse_us, "us");
  out->Metric("obs.json_serialize_us", json.serialize_us, "us");
  out->Metric("transport_us.count", Median(transport), "us");
  out->Metric("server.handle_us.count", Median(Durations(handle_count)), "us");
  out->Metric("server.handle_us.insert", handle_insert_us, "us");
  out->Metric("server.handle_us.mine", Median(Durations(handle_mine)), "us");
  out->Metric("server.write_wait_us.insert",
              handle_insert_us - wal_median - publish_median, "us");
  out->Metric("scheduler.queue_wait_us", Median(queue), "us");
  out->Metric("scheduler.batch_size", Mean(batch_sizes), "count");
  out->Metric("scheduler.batch_us", Median(batch), "us");
  out->Metric("snapshot.count_us", Median(snap_us), "us");
  out->Metric("snapshot.slice_words", Mean(snap_words), "words");
  out->Metric("snapshot.insert_us", publish_median, "us");
  out->Metric("wal.log_insert_us", wal_median, "us");
  out->Metric("wal.fsyncs_per_insert",
              wal_appends ? static_cast<double>(wal_fsyncs) /
                                static_cast<double>(wal_appends)
                          : 0,
              "ratio");
  out->Metric("wal.bytes_per_txn",
              wal_appends ? static_cast<double>(wal_bytes) /
                                static_cast<double>(oracle.acked_inserts())
                          : 0,
              "B");
  out->Metric("durability.checkpoint_ms", checkpoint_ms, "ms");
  out->Metric("durability.checkpoints", static_cast<double>(checkpoints),
              "count");
  out->Metric("baseline.eclat_ms", eclat_ms, "ms");
  out->Metric("gen.late_us_p99", LatenessP99(samples), "us");
  const double traced_p50 = CountP50(samples);
  out->Metric("trace.overhead_ratio", traced_p50 / std::max(untraced_p50, 1.0),
              "ratio");
  Attribute(out, Mean(latency),
            {{"gen.wait", Mean(gen_wait)},
             {"obs.json", json.parse_us + json.serialize_us},
             {"server.handle_self", Mean(handle_self)},
             {"scheduler.queue_wait", Mean(queue)},
             {"scheduler.batch", Mean(batch)}});
  out->info.Set("checkpoint_every",
                JsonValue::Uint(args.Uint("checkpoint-every", 256)));
}

// --------------------------------------------------------- fleet-read --

/// One non-durable shard daemon, assembled as bbsmined assembles one
/// from --index FILE.bbs --db FILE.db.
struct ShardHost {
  TransactionDatabase db;
  std::optional<service::SnapshotManager> index;
  std::unique_ptr<bbsmine::obs::Tracer> tracer;
  std::unique_ptr<service::FlightRecorder> flight;
  std::unique_ptr<service::BbsService> service;
  std::unique_ptr<TimingHandler> handler;
  std::unique_ptr<service::SocketServer> server;

  ShardHost() = default;
  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;
  ~ShardHost() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Drain();
  }
};

struct FleetHost {
  std::vector<std::unique_ptr<ShardHost>> shards;
  std::unique_ptr<cluster::RouterService> router;
  std::unique_ptr<TimingHandler> handler;
  std::unique_ptr<service::SocketServer> server;

  FleetHost() = default;
  FleetHost(const FleetHost&) = delete;
  FleetHost& operator=(const FleetHost&) = delete;
  ~FleetHost() {
    if (server != nullptr) server->Stop();
    if (router != nullptr) router->Drain();
    server.reset();
    handler.reset();
    router.reset();
    shards.clear();
  }
};

std::unique_ptr<FleetHost> HostFleet(const std::vector<std::string>& dbs,
                                     const std::vector<std::string>& indexes,
                                     SpanLog* log) {
  auto fleet = std::make_unique<FleetHost>();
  std::string spec;
  for (size_t s = 0; s < dbs.size(); ++s) {
    auto host = std::make_unique<ShardHost>();
    BbsIndex bbs = Unwrap(BbsIndex::Load(indexes[s]), "load shard index");
    host->index.emplace(
        Unwrap(service::SnapshotManager::FromIndex(bbs, 4096), "snapshots"));
    host->db = Unwrap(TransactionDatabase::Load(dbs[s]), "load shard db");
    service::ServiceOptions options;
    options.scheduler.num_threads = 1;
    options.scheduler.max_pending = 1024;
    options.scheduler.max_batch = 256;
    options.slow_query_us = 10000;
    host->flight = std::make_unique<service::FlightRecorder>(64);
    options.flight_recorder = host->flight.get();
    if (log != nullptr) {
      host->tracer =
          std::make_unique<bbsmine::obs::Tracer>(bbsmine::obs::kTraceService);
      options.tracer = host->tracer.get();
      options.trace_sample = 1;
    }
    host->service = std::make_unique<service::BbsService>(&*host->index,
                                                          &host->db, options);
    host->handler = std::make_unique<TimingHandler>(
        host->service.get(), "shard" + std::to_string(s), log);
    host->server = std::make_unique<service::SocketServer>(
        host->handler.get(), service::SocketServerOptions{});
    DieIfError(host->server->Start(), "shard start");
    if (s > 0) spec += ',';
    spec += "127.0.0.1:";
    spec += std::to_string(host->server->port());
    fleet->shards.push_back(std::move(host));
  }
  // bbsrouter's defaults (tools/bbsrouter_main.cpp).
  cluster::RouterOptions options;
  options.retry.retries = 3;
  fleet->router = std::make_unique<cluster::RouterService>(
      Unwrap(cluster::ParseShardSpec(spec), "shard spec"), options);
  DieIfError(fleet->router->Init(), "router init");
  fleet->handler =
      std::make_unique<TimingHandler>(fleet->router.get(), "router", log);
  fleet->server = std::make_unique<service::SocketServer>(
      fleet->handler.get(), service::SocketServerOptions{});
  DieIfError(fleet->server->Start(), "router start");
  return fleet;
}

JsonValue Call(uint16_t port, const JsonValue& request) {
  service::ClientSession session("127.0.0.1", port);
  return Unwrap(session.Call(request), "shard call");
}

cluster::ShardMineResult ParseRound1(const JsonValue& response) {
  cluster::ShardMineResult result;
  result.reachable = true;
  result.transactions = response.at("transactions").AsUint();
  const JsonValue& patterns = response.at("patterns");
  for (size_t p = 0; p < patterns.size(); ++p) {
    result.supports[Unwrap(service::ItemsFromJson(patterns.at(p).at("items")),
                           "items")] = patterns.at(p).at("support").AsUint();
  }
  return result;
}

void TracedFleetRead(const Args& args, SpanLog* log, Output* out) {
  const ServeKind kind = ServeKind::kFleetRead;
  const std::vector<std::string> db_paths = SplitCommas(args.Require("db"));
  const std::vector<std::string> index_paths =
      SplitCommas(args.Require("index"));
  std::vector<TransactionDatabase> dbs;
  for (const std::string& path : db_paths) {
    dbs.push_back(Unwrap(TransactionDatabase::Load(path), "load db"));
  }
  std::vector<bbsmine::ItemId> ranks = FleetRankTable(dbs);
  Oracle oracle = Oracle::ForFleet(dbs);
  std::vector<TrafficRequest> schedule =
      MakeSchedule(kind, ranks, args.Double("rate", 300),
                   args.Double("seconds", 6), args.Uint("seed", 1) * 1000);
  oracle.Prepare(schedule);
  LoadTarget target;

  double untraced_p50 = 0;
  {
    auto fleet = HostFleet(db_paths, index_paths, nullptr);
    target.port = fleet->server->port();
    std::vector<Sample> samples = RunOpenLoop(kind, schedule, target, oracle);
    untraced_p50 = CountP50(samples);
    out->AddSamples(samples);
  }

  auto fleet = HostFleet(db_paths, index_paths, log);
  target.port = fleet->server->port();
  target.tag_trace_ids = true;
  std::vector<Sample> samples = RunOpenLoop(kind, schedule, target, oracle);
  out->AddSamples(samples);
  LogClientSpans(log, samples);
  std::vector<std::pair<JsonValue, JsonValue>> docs =
      FetchCountDocs(kind, schedule, fleet->server->port());
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("verb", JsonValue::String("STATS"));
  const JsonValue router_stats = Call(fleet->server->port(), stats_request);

  // Bloofi: the tree the router builds, from the shards' SHARDINFO
  // signatures, queried with each COUNT's hash positions.
  JsonValue shardinfo = JsonValue::Object();
  shardinfo.Set("verb", JsonValue::String("SHARDINFO"));
  std::vector<bbsmine::BitVector> leaves;
  for (const auto& shard : fleet->shards) {
    const JsonValue info = Call(shard->server->port(), shardinfo);
    leaves.push_back(Unwrap(
        service::BitsFromHex(info.at("signature").AsString(), 1600), "hex"));
  }
  cluster::BloofiTree tree = cluster::BloofiTree::Build(leaves, 4);
  auto hash = Unwrap(
      bbsmine::BloomHashFamily::Create(1600, 4, bbsmine::HashKind::kMd5, 0),
      "hash family");
  std::vector<std::vector<uint32_t>> positions;
  for (const TrafficRequest& request : schedule) {
    if (request.verb != TrafficVerb::kCount) continue;
    std::vector<uint32_t> pos;
    for (bbsmine::ItemId item : request.items) {
      const auto& p = hash.Positions(item);
      pos.insert(pos.end(), p.begin(), p.end());
    }
    std::sort(pos.begin(), pos.end());
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    positions.push_back(std::move(pos));
  }
  size_t matched = 0;
  const double bloofi_us = MedianOf(5, [&] {
    matched = 0;
    return log->Time("cluster.BloofiTree::Query x" +
                         std::to_string(positions.size()),
                     [&] {
                       for (const auto& pos : positions) {
                         matched += tree.Query(pos).size();
                       }
                     }) /
           static_cast<double>(std::max<size_t>(positions.size(), 1));
  });

  // The two-round MINE exchange, replayed leg by leg against the shards,
  // timing the cluster/merge.h functions the router runs on the replies.
  const TrafficShape shape = ShapeOf(kind);
  JsonValue round1_request = JsonValue::Object();
  round1_request.Set("verb", JsonValue::String("MINE"));
  round1_request.Set("minsup", JsonValue::Double(shape.mine_minsup));
  round1_request.Set("top", JsonValue::Uint(50'000'000));
  std::vector<cluster::ShardMineResult> round1;
  for (const auto& shard : fleet->shards) {
    round1.push_back(ParseRound1(Call(shard->server->port(), round1_request)));
  }
  std::vector<bbsmine::Itemset> candidates;
  std::vector<std::vector<bbsmine::Itemset>> needed(round1.size());
  double merge_us = log->Time("cluster.UnionCandidates+MissingCandidates", [&] {
    candidates = cluster::UnionCandidates(round1);
    for (size_t s = 0; s < round1.size(); ++s) {
      needed[s] = cluster::MissingCandidates(round1[s], candidates);
    }
  });
  std::vector<std::map<bbsmine::Itemset, uint64_t>> round2(round1.size());
  uint64_t total = 0;
  for (size_t s = 0; s < round1.size(); ++s) {
    total += round1[s].transactions;
    if (needed[s].empty()) continue;
    JsonValue request = JsonValue::Object();
    request.Set("verb", JsonValue::String("MINE"));
    JsonValue list = JsonValue::Array();
    for (const auto& items : needed[s]) list.Append(service::ItemsToJson(items));
    request.Set("candidates", std::move(list));
    const JsonValue reply = Call(fleet->shards[s]->server->port(), request);
    const JsonValue& supports = reply.at("supports");
    for (size_t c = 0; c < needed[s].size() && c < supports.size(); ++c) {
      round2[s][needed[s][c]] = supports.at(c).AsUint();
    }
  }
  std::vector<bbsmine::Pattern> merged;
  merge_us += log->Time("cluster.MergeGlobalPatterns", [&] {
    merged = cluster::MergeGlobalPatterns(
        round1, round2, candidates,
        bbsmine::AbsoluteThreshold(shape.mine_minsup, total));
  });
  out->Check(total == oracle.base_transactions(),
             "the replayed MINE exchange covers every transaction");

  fleet->server->Stop();
  std::vector<ServiceSpans> shard_spans;
  for (const auto& shard : fleet->shards) {
    shard->server->Stop();
    shard_spans.push_back(ReadServiceSpans(*shard->tracer));
  }
  std::vector<double> snap_us;
  std::vector<double> snap_words;
  {
    service::Snapshot snap = fleet->shards[0]->index->Acquire();
    for (const TrafficRequest& request : schedule) {
      if (request.verb != TrafficVerb::kCount) continue;
      bbsmine::IoStats io;
      const double t0 = NowUs();
      snap.CountItemSet(request.items, &io);
      snap_us.push_back(NowUs() - t0);
      snap_words.push_back(static_cast<double>(io.slice_words_touched));
    }
  }
  const double eclat_ms = MedianOf(3, [&] {
    bbsmine::EclatConfig config;
    config.min_support = shape.mine_minsup;
    return log->Time("baseline.MineEclat shard0",
                     [&] { bbsmine::MineEclat(fleet->shards[0]->db, config); }) /
           1e3;
  });
  const JsonCosts json = ReplayJson(docs, log);

  const std::vector<Span> spans = log->spans();
  const auto router_count = SpansNamed(spans, "router.count");
  std::vector<std::map<uint64_t, Span>> shard_count;
  for (size_t s = 0; s < fleet->shards.size(); ++s) {
    shard_count.push_back(SpansNamed(spans, "shard" + std::to_string(s) + ".count"));
  }
  std::vector<double> transport, overhead, legs, leg_us, queue, batch,
      batch_sizes, latency, gen_wait, handle_self;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples[i];
    if (sample.verb != TrafficVerb::kCount || !sample.ok) continue;
    auto h = router_count.find(i);
    if (h == router_count.end()) continue;
    // The slowest leg blocks the answer.
    size_t n_legs = 0;
    size_t slowest = SIZE_MAX;
    double slowest_end = 0;
    for (size_t s = 0; s < shard_count.size(); ++s) {
      auto leg = shard_count[s].find(i);
      if (leg == shard_count[s].end()) continue;
      ++n_legs;
      leg_us.push_back(leg->second.dur());
      if (slowest == SIZE_MAX || leg->second.end_us > slowest_end) {
        slowest = s;
        slowest_end = leg->second.end_us;
      }
    }
    if (slowest == SIZE_MAX) continue;
    const Span& leg = shard_count[slowest].at(i);
    const ServiceSpans& ss = shard_spans[slowest];
    auto q = ss.queue_wait_us.find(i);
    if (q == ss.queue_wait_us.end()) continue;
    const uint64_t batch_id = ss.batch_of.at(i);
    const double b = ss.batch_us.count(batch_id) ? ss.batch_us.at(batch_id) : 0;
    legs.push_back(static_cast<double>(n_legs));
    transport.push_back(sample.done_us - sample.sent_us - h->second.dur());
    overhead.push_back(h->second.dur() - leg.dur());
    queue.push_back(q->second);
    batch.push_back(b);
    batch_sizes.push_back(static_cast<double>(
        ss.batch_size.count(batch_id) ? ss.batch_size.at(batch_id) : 1));
    latency.push_back(sample.latency_us());
    gen_wait.push_back(sample.sent_us - sample.due_us);
    handle_self.push_back(leg.dur() - q->second - b);
  }
  out->Check(!latency.empty(), "traced COUNTs matched to router and shard spans");

  const JsonValue& cluster_stats = router_stats.at("report").at("cluster");
  const double counts =
      static_cast<double>(router_stats.at("report")
                              .at("metrics")
                              .at("counters")
                              .at("requests_count")
                              .AsUint());
  const double pruned =
      static_cast<double>(cluster_stats.at("pruned_shard_queries").AsUint());
  const double shards = static_cast<double>(fleet->shards.size());
  size_t shared_only = 0;
  for (const TrafficRequest& request : schedule) {
    if (request.verb == TrafficVerb::kCount &&
        request.items.back() < kFleetShared) {
      ++shared_only;
    }
  }

  out->Metric("obs.json_parse_us", json.parse_us, "us");
  out->Metric("obs.json_serialize_us", json.serialize_us, "us");
  out->Metric("transport_us.count", Median(transport), "us");
  out->Metric("router.handle_us.count", Median(Durations(router_count)), "us");
  out->Metric("router.leg_us", Median(leg_us), "us");
  out->Metric("router.overhead_us", Median(overhead), "us");
  out->Metric("server.handle_us.count", Median(leg_us), "us");
  out->Metric("cluster.legs_per_count", Mean(legs), "count");
  out->Metric("cluster.prune_ratio", counts > 0 ? pruned / (counts * shards) : 0,
              "ratio");
  out->info.Set("shared_only_share",
                JsonValue::Double(positions.empty()
                                      ? 0
                                      : static_cast<double>(shared_only) /
                                            static_cast<double>(positions.size())));
  out->Metric("bloofi.query_us", bloofi_us, "us");
  out->Metric("merge.mine_us", merge_us, "us");
  out->Metric("scheduler.queue_wait_us", Median(queue), "us");
  out->Metric("scheduler.batch_size", Mean(batch_sizes), "count");
  out->Metric("scheduler.batch_us", Median(batch), "us");
  out->Metric("snapshot.count_us", Median(snap_us), "us");
  out->Metric("snapshot.slice_words", Mean(snap_words), "words");
  out->Metric("baseline.eclat_ms", eclat_ms, "ms");
  out->Metric("gen.late_us_p99", LatenessP99(samples), "us");
  out->Metric("trace.overhead_ratio",
              CountP50(samples) / std::max(untraced_p50, 1.0), "ratio");
  Attribute(out, Mean(latency),
            {{"gen.wait", Mean(gen_wait)},
             {"obs.json", json.parse_us + json.serialize_us},
             {"router.overhead", Mean(overhead)},
             {"server.handle_self", Mean(handle_self)},
             {"scheduler.queue_wait", Mean(queue)},
             {"scheduler.batch", Mean(batch)}});
  out->info.Set("bloofi_matched_legs", JsonValue::Uint(matched));
  out->info.Set("merged_patterns", JsonValue::Uint(merged.size()));
}

}  // namespace

int CmdTraced(const Args& args) {
  const std::string workload = args.Require("workload");
  SetMineMinsup(args.Double("mine-minsup", 0));
  SpanLog log;
  Output out;
  if (workload == "mine-paper") {
    TracedMinePaper(args, &log, &out);
  } else {
    if (workload == "serve-rw") {
      TracedServeRw(args, &log, &out);
    } else if (workload == "fleet-read") {
      TracedFleetRead(args, &log, &out);
    } else {
      std::fprintf(stderr, "pbench: unknown workload %s\n", workload.c_str());
      return 2;
    }
    JsonValue selftest = RunSelfTest();
    out.Check(selftest.at("ok").AsBool(), "open-loop self-test");
    out.info.Set("selftest", std::move(selftest));
  }
  log.WriteChromeTrace(args.Str("trace-out"));
  JsonValue doc = JsonValue::Object();
  doc.Set("attempted", JsonValue::Uint(out.attempted));
  doc.Set("failed", JsonValue::Uint(out.failed));
  doc.Set("metrics", std::move(out.metrics));
  doc.Set("info", std::move(out.info));
  PrintJsonLine(doc);
  return 0;
}

}  // namespace pbench
