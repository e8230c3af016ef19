// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// grca_perfbench — the in-process half of the benchmark (see README.md).
// perfbench/run.py drives it; every command writes its results under --out:
//
//   grca_perfbench info
//       Print the build stamp (build type, sanitizer, compiler) as JSON.
//
//   grca_perfbench calibrate --repeat N
//       Run the machine-speed probe N times; print one duration (s) a line.
//
//   grca_perfbench reference --study bgp|innet --data DIR --out DIR
//       The reference verdicts: a single-thread in-process Pipeline over the
//       corpus (extraction path). Writes report.txt, in the layout
//       `grca diagnose --score` prints, and verdicts.tsv.
//
//   grca_perfbench batch-trace --study bgp|innet --data DIR [--store DIR]
//                              --threads N --out DIR
//       The traced batch run: the layer calls `grca diagnose` makes, in its
//       order, each timed from here. Writes report.txt, verdicts.tsv,
//       result.json (per-layer metrics and breakdown) and trace.json.
//
//   grca_perfbench stream --data DIR --persist DIR --seed S --out DIR [--trace]
//       The streaming workload: feeds the BGP corpus through
//       apps::StreamingRca in arrival order, one record per ingest() call
//       (closed loop), advance() every 300 stream-seconds, then drain().
//       Writes verdicts.tsv and result.json; --trace also times every ingest
//       call and writes trace.json.
//
// Spans are kept in memory and written when the command ends, in the Chrome
// trace layout `grca spans` produces, so one viewer opens both.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/innet_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "apps/streaming.h"
#include "collector/extract.h"
#include "collector/normalizer.h"
#include "collector/record_index.h"
#include "collector/routing_rebuild.h"
#include "core/engine.h"
#include "core/event_store.h"
#include "core/result_browser.h"
#include "obs/feed_health.h"
#include "obs/metrics.h"
#include "simulation/archive.h"
#include "storage/persistent_store.h"
#include "telemetry/records_io.h"
#include "topology/config.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace fs = std::filesystem;
using namespace grca;
using Clock = std::chrono::steady_clock;

namespace {

// The streaming arrival model, matching `grca replay`'s defaults: a stable
// per-source delivery lag in [0, 120] s plus per-record jitter in [0, 60] s.
// Their sum stays below StreamingOptions::max_skew (1 h), so no record is
// late-dropped.
constexpr util::TimeSec kSourceLag = 120;
constexpr util::TimeSec kJitter = 60;
constexpr util::TimeSec kTick = 300;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "grca_perfbench: " << message << "\n";
  std::exit(2);
}

struct Args {
  std::map<std::string, std::string> values;
  bool trace = false;

  std::string get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) fail("missing --" + key);
    return it->second;
  }
  bool has(const std::string& key) const { return values.count(key) > 0; }
  long get_long(const std::string& key) const {
    try {
      return std::stol(get(key));
    } catch (const std::exception&) {
      fail("--" + key + ": expected an integer");
    }
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) fail("unexpected argument " + arg);
    if (arg == "--trace") {
      args.trace = true;
    } else if (i + 1 < argc) {
      args.values[arg.substr(2)] = argv[++i];
    } else {
      fail("missing value for " + arg);
    }
  }
  return args;
}

struct Study {
  core::DiagnosisGraph (*graph)();
  void (*browser)(core::ResultBrowser&);
  std::string (*canonical)(const std::string&);
};

Study study_for(const std::string& name) {
  if (name == "bgp") {
    return {apps::bgp::build_graph, apps::bgp::configure_browser,
            apps::bgp::canonical_cause};
  }
  if (name == "innet") {
    return {apps::innet::build_graph, apps::innet::configure_browser,
            apps::innet::canonical_cause};
  }
  fail("unknown study '" + name + "'");
}

/// In-memory span recorder: one complete event per timed call, relative to
/// the recorder's construction.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  template <typename F>
  decltype(auto) time(const std::string& name, F&& body) {
    Clock::time_point start = Clock::now();
    struct Close {
      Tracer& tracer;
      const std::string& name;
      Clock::time_point start;
      ~Close() { tracer.add(name, start, Clock::now()); }
    } close{*this, name, start};
    return body();
  }

  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back(Span{name, start, end});
  }

  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += seconds(s.end - s.start);
    }
    return sum;
  }

  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// Calls and total seconds per span name, in first-seen order.
  std::vector<std::pair<std::string, std::pair<std::size_t, double>>> summary()
      const {
    std::vector<std::pair<std::string, std::pair<std::size_t, double>>> out;
    for (const Span& s : spans_) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == s.name; });
      if (it == out.end()) {
        out.push_back({s.name, {0, 0.0}});
        it = std::prev(out.end());
      }
      ++it->second.first;
      it->second.second += seconds(s.end - s.start);
    }
    return out;
  }

  /// Writes the spans as `grca spans` does: complete ("X") events on one
  /// timeline, microseconds since the tracer's epoch.
  void write_chrome(const fs::path& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto us = [](Clock::duration d) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::microseconds>(d).count());
      };
      out << (i ? "," : "") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"ts\":" << us(s.start - epoch_)
          << ",\"dur\":" << us(s.end - s.start) << ",\"pid\":1,\"tid\":1}";
    }
    out << "\n]}\n";
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// A flat JSON object of named numbers and strings, in insertion order.
class JsonObject {
 public:
  void num(const std::string& key, double value) {
    std::ostringstream v;
    v.precision(17);
    v << value;
    fields_.emplace_back(key, v.str());
  }
  void raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }
  void str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, quote(value));
  }
  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", " : "") + quote(fields_[i].first) + ": " +
             fields_[i].second;
    }
    return out + "}";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string verdict_key(const core::Diagnosis& d) {
  return d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start);
}

void write_verdicts(const fs::path& path,
                    const std::vector<core::Diagnosis>& diagnoses) {
  std::ofstream out(path);
  for (const core::Diagnosis& d : diagnoses) {
    out << verdict_key(d) << '\t' << d.primary() << '\n';
  }
}

/// The breakdown and score lines in the layout `grca diagnose --score`
/// prints, so one parser reads the child's stdout and the references.
void write_report(const fs::path& path, std::vector<core::Diagnosis> diagnoses,
                  const std::vector<sim::TruthEntry>& truth,
                  const Study& study) {
  core::ResultBrowser browser(std::move(diagnoses));
  study.browser(browser);
  apps::Score score =
      apps::score_diagnoses(browser.diagnoses(), truth, study.canonical);
  std::ofstream out(path);
  out << browser.breakdown().render("root cause breakdown");
  out << "\nmean diagnosis time: " << browser.mean_diagnosis_ms()
      << " ms/symptom over " << browser.diagnoses().size() << " symptoms\n";
  out << "\naccuracy vs ground truth: " << 100.0 * score.accuracy() << "% ("
      << score.correct << "/" << score.matched << " matched diagnoses)\n";
}

std::string breakdown_json(const Tracer& tracer) {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, stats] : tracer.summary()) {
    JsonObject row;
    row.str("span", name);
    row.num("calls", static_cast<double>(stats.first));
    row.num("total_s", stats.second);
    out += (first ? "" : ", ") + row.render();
    first = false;
  }
  return out + "]";
}

std::uint64_t counter(const std::string& name) {
  obs::MetricsRegistry* reg = obs::registry_ptr();
  return reg ? reg->counter(name).value() : 0;
}

double stage_seconds(const std::string& stage) {
  obs::MetricsRegistry* reg = obs::registry_ptr();
  if (!reg) return 0.0;
  return reg->histogram("grca_stage_seconds{stage=\"" + stage + "\"}")
      .snapshot()
      .sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A corpus loaded the way sim::read_corpus loads it, with each layer call
/// timed: configs and inventory read, network rebuilt, records parsed,
/// truth read.
struct Corpus {
  topology::Network network;
  telemetry::RecordStream records;
  std::vector<sim::TruthEntry> truth;
};

Corpus load_corpus(const fs::path& dir, Tracer& tracer) {
  std::vector<std::string> configs;
  std::string inventory;
  tracer.time("corpus.read_files", [&] {
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(dir / "configs")) {
      paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
      std::ifstream in(path);
      std::stringstream ss;
      ss << in.rdbuf();
      configs.push_back(ss.str());
    }
    std::ifstream inv(dir / "inventory.txt");
    if (!inv) fail("missing " + (dir / "inventory.txt").string());
    std::stringstream ss;
    ss << inv.rdbuf();
    inventory = ss.str();
  });
  topology::Network net = tracer.time("topology.build_network", [&] {
    return topology::build_network_from_configs(configs, inventory);
  });
  telemetry::RecordStream records = tracer.time("telemetry.read_stream", [&] {
    std::ifstream rec(dir / "records.tsv");
    if (!rec) fail("missing " + (dir / "records.tsv").string());
    return telemetry::read_stream(rec);
  });
  std::vector<sim::TruthEntry> truth =
      tracer.time("corpus.read_truth", [&] { return sim::read_truth(dir); });
  return Corpus{std::move(net), std::move(records), std::move(truth)};
}

/// The machine-speed probe: fixed work shaped like the program's hot paths
/// (a whole-vector sort and hash-map inserts over seeded 64-bit keys),
/// independent of the repository's code, so no change to the program moves
/// it. run.py scales end-to-end times by it; see README.md.
int cmd_calibrate(const Args& args) {
  const long repeat = args.get_long("repeat");
  for (long r = 0; r < repeat; ++r) {
    const Clock::time_point t0 = Clock::now();
    util::Rng rng(42);
    std::vector<std::uint64_t> keys(1 << 20);
    for (std::uint64_t& k : keys) k = rng.next();
    std::sort(keys.begin(), keys.end());
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    index.reserve(keys.size() / 4);
    for (std::size_t i = 0; i < keys.size(); i += 4) {
      index.emplace(keys[i] >> 7, static_cast<std::uint32_t>(i));
    }
    const double seconds = Tracer::seconds(Clock::now() - t0);
    if (index.size() + keys.front() % 2 == 0) fail("calibration lost its work");
    std::printf("%.9f\n", seconds);
  }
  return 0;
}

int cmd_info() {
  JsonObject info;
  info.str("build_type", PERFBENCH_BUILD_TYPE);
  info.str("sanitize", PERFBENCH_SANITIZE);
  info.str("compiler", PERFBENCH_COMPILER);
  std::cout << info.render() << "\n";
  return 0;
}

int cmd_reference(const Args& args) {
  Study study = study_for(args.get("study"));
  fs::path out(args.get("out"));
  fs::create_directories(out);
  sim::ReplayCorpus corpus = sim::read_corpus(args.get("data"));
  apps::Pipeline pipeline(corpus.network, corpus.records);
  std::vector<core::Diagnosis> diagnoses =
      pipeline.diagnose_all(study.graph(), /*threads=*/1);
  write_verdicts(out / "verdicts.tsv", diagnoses);
  write_report(out / "report.txt", std::move(diagnoses), corpus.truth, study);
  return 0;
}

int cmd_batch_trace(const Args& args) {
  Study study = study_for(args.get("study"));
  fs::path out(args.get("out"));
  fs::create_directories(out);
  unsigned threads = static_cast<unsigned>(args.get_long("threads"));
  Tracer tracer;
  JsonObject metrics;
  {
    // Layer calls in the order run_study and the Pipeline constructors
    // make them. The studies timed here (bgp, innet) watch no BGP egress
    // routers, so extract_egress_changes is not called.
    Corpus corpus = load_corpus(args.get("data"), tracer);
    const topology::Network& net = corpus.network;
    std::shared_ptr<storage::PersistentEventStore> pstore;
    if (args.has("store")) {
      pstore = tracer.time("storage.open", [&] {
        auto store = std::make_shared<storage::PersistentEventStore>(
            storage::PersistentEventStore::open(args.get("store")));
        store->warm();
        return store;
      });
    }
    obs::FeedHealthMonitor feed_health;
    collector::Normalizer normalizer(net, &feed_health);
    std::vector<collector::NormalizedRecord> normalized =
        tracer.time("collector.normalize",
                    [&] { return normalizer.normalize_stream(corpus.records); });
    collector::RecordIndex index = tracer.time("collector.index", [&] {
      return collector::RecordIndex(std::move(normalized));
    });
    collector::RebuiltRouting routing(net);
    tracer.time("collector.routing_replay",
                [&] { routing.replay(index.all()); });
    std::size_t routing_records = 0;
    for (const collector::NormalizedRecord& r : index.all()) {
      routing_records += r.source == telemetry::SourceType::kOspfMon ||
                         r.source == telemetry::SourceType::kBgpMon;
    }
    core::EventStore store;
    if (!pstore) {
      store.enable_metrics(obs::registry_ptr());
      tracer.time("collector.extract", [&] {
        collector::EventExtractor(net, collector::ExtractOptions{})
            .extract(index.all(), store);
      });
    }
    if (!index.all().empty()) feed_health.observe_clock(index.all().back().utc);
    const core::EventStoreView& events =
        pstore ? static_cast<const core::EventStoreView&>(*pstore) : store;
    if (!pstore) tracer.time("core.store_warm", [&] { store.warm(); });
    core::LocationMapper mapper(net, routing.ospf(), routing.bgp());

    const std::uint64_t evals0 = counter("grca_engine_rule_evals_total");
    core::RcaEngine engine(study.graph(), events, mapper);
    std::vector<core::Diagnosis> diagnoses = tracer.time(
        "core.diagnose", [&] { return engine.diagnose_all(threads); });
    const std::uint64_t rule_evals =
        counter("grca_engine_rule_evals_total") - evals0;
    const core::JoinCache::Stats cache = engine.join_cache().stats();

    tracer.time("apps.report", [&] {
      write_report(out / "report.txt", diagnoses, corpus.truth, study);
    });
    tracer.time("bench.write_verdicts",
                [&] { write_verdicts(out / "verdicts.tsv", diagnoses); });

    const double records = static_cast<double>(corpus.records.size());
    const double read_s = tracer.total("telemetry.read_stream");
    const double normalize_s = tracer.total("collector.normalize");
    metrics.num("telemetry.read_stream_s", read_s);
    metrics.num("telemetry.records_per_s", ratio(records, read_s));
    metrics.num("telemetry.records", records);
    metrics.num("topology.build_network_s",
                tracer.total("topology.build_network"));
    metrics.num("collector.normalize_s", normalize_s);
    metrics.num("collector.normalize_us_per_record",
                ratio(normalize_s * 1e6, records));
    metrics.num("collector.rejected_records",
                static_cast<double>(normalizer.dropped()));
    metrics.num("collector.index_s", tracer.total("collector.index"));
    metrics.num("collector.routing_replay_s",
                tracer.total("collector.routing_replay"));
    metrics.num("collector.routing_changes",
                static_cast<double>(routing_records - routing.skipped()));
    metrics.num("collector.extract_s", tracer.total("collector.extract"));
    metrics.num("collector.events",
                pstore ? 0.0 : static_cast<double>(store.total_instances()));
    metrics.num("storage.open_s", tracer.total("storage.open"));
    metrics.num("storage.mapped_bytes",
                pstore ? static_cast<double>(pstore->stats().mapped_bytes)
                       : 0.0);
    metrics.num("storage.bytes_written", 0.0);
    metrics.num("storage.bytes_per_event", 0.0);
    metrics.num("storage.seals", 0.0);
    metrics.num("core.diagnose_s", tracer.total("core.diagnose"));
    metrics.num("core.join_cache_hits", static_cast<double>(cache.hits));
    metrics.num("core.join_cache_lookups",
                static_cast<double>(cache.hits + cache.misses));
    metrics.num("core.join_cache_hit_ratio",
                ratio(static_cast<double>(cache.hits),
                      static_cast<double>(cache.hits + cache.misses)));
    metrics.num("core.rule_evals", static_cast<double>(rule_evals));
    for (const char* name :
         {"apps.stream_ingest_s", "apps.stream_ingest_p99_us",
          "apps.stream_advance_s", "apps.stream_freeze_s",
          "apps.stream_diagnose_s", "apps.stream_drain_s"}) {
      metrics.num(name, 0.0);
    }
  }
  // Teardown of the corpus, index and stores happened above, outside any
  // span: it is part of the unattributed time run.py reports.
  JsonObject result;
  result.raw("metrics", metrics.render());
  result.raw("breakdown", breakdown_json(tracer));
  result.num("peak_rss_mb", peak_rss_mb());
  std::ofstream(out / "result.json") << result.render() << "\n";
  tracer.write_chrome(out / "trace.json");
  return 0;
}

/// One scheduled delivery: a record and its arrival time on the stream.
struct Arrival {
  const telemetry::RawRecord* raw;
  util::TimeSec at;
  std::size_t seq;
};

/// Arrival order as FeedReplayer draws it: one lag per source, then one
/// jitter per record in emission order, stable on (arrival, emission).
std::vector<Arrival> arrival_schedule(const telemetry::RecordStream& records,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::array<util::TimeSec, obs::kSourceCount> lag{};
  for (util::TimeSec& d : lag) d = rng.range(0, kSourceLag);
  std::vector<Arrival> out;
  out.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const telemetry::RawRecord& r = records[i];
    util::TimeSec delay = lag[static_cast<std::size_t>(r.source)] +
                          rng.range(0, kJitter);
    out.push_back(Arrival{&r, r.true_utc + delay, i});
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * (values.size() - 1))];
}

int cmd_stream(const Args& args) {
  fs::path out(args.get("out"));
  fs::path persist(args.get("persist"));
  fs::create_directories(out);
  if (fs::exists(persist) && !fs::is_empty(persist)) {
    fail("--persist " + persist.string() + " must be empty (it would resume)");
  }
  const bool traced = args.trace;
  const Study study = study_for("bgp");
  Tracer tracer;
  JsonObject metrics;
  JsonObject result;
  {
    Corpus corpus = load_corpus(args.get("data"), tracer);
    std::vector<Arrival> schedule = tracer.time("bench.schedule", [&] {
      return arrival_schedule(corpus.records,
                              static_cast<std::uint64_t>(args.get_long("seed")));
    });

    apps::StreamingOptions options;
    options.persist_dir = persist;
    const std::uint64_t evals0 = counter("grca_engine_rule_evals_total");
    const std::uint64_t hits0 = counter("grca_join_cache_hits");
    const std::uint64_t misses0 = counter("grca_join_cache_misses");
    const std::uint64_t written0 = counter("grca_storage_bytes_written_total");
    const std::uint64_t seals0 = counter("grca_storage_seals_total");
    const double freeze0 = stage_seconds("stream-freeze");
    const double diagnose0 = stage_seconds("stream-diagnose");

    apps::StreamingRca stream = tracer.time("apps.stream_open", [&] {
      return apps::StreamingRca(corpus.network, study.graph(), options);
    });
    std::vector<core::Diagnosis> diagnoses;
    std::vector<double> advance_ms;
    std::vector<double> ingest_us;
    if (traced) ingest_us.reserve(schedule.size());
    double ingest_s = 0.0;

    auto collect = [&](std::vector<core::Diagnosis> batch) {
      for (core::Diagnosis& d : batch) diagnoses.push_back(std::move(d));
    };
    const Clock::time_point run0 = Clock::now();
    Clock::time_point batch0 = run0;
    util::TimeSec next_tick =
        schedule.empty() ? 0 : schedule.front().at + kTick;
    for (const Arrival& item : schedule) {
      while (item.at >= next_tick) {
        const Clock::time_point t0 = Clock::now();
        if (traced) tracer.add("apps.stream_ingest", batch0, t0);
        collect(stream.advance(next_tick));
        const Clock::time_point t1 = Clock::now();
        if (traced) tracer.add("apps.stream_advance", t0, t1);
        advance_ms.push_back(Tracer::seconds(t1 - t0) * 1e3);
        next_tick += kTick;
        batch0 = t1;
      }
      if (traced) {
        const Clock::time_point t0 = Clock::now();
        stream.ingest(*item.raw);
        const double us = Tracer::seconds(Clock::now() - t0) * 1e6;
        ingest_us.push_back(us);
        ingest_s += us * 1e-6;
      } else {
        stream.ingest(*item.raw);
      }
    }
    const Clock::time_point drain0 = Clock::now();
    if (traced) tracer.add("apps.stream_ingest", batch0, drain0);
    const double freeze_advance = stage_seconds("stream-freeze") - freeze0;
    const double diagnose_advance = stage_seconds("stream-diagnose") - diagnose0;
    collect(stream.drain());
    const Clock::time_point run1 = Clock::now();
    tracer.add("apps.stream_drain", drain0, run1);

    apps::Score score =
        apps::score_diagnoses(diagnoses, corpus.truth, study.canonical);
    tracer.time("bench.write_verdicts",
                [&] { write_verdicts(out / "verdicts.tsv", diagnoses); });

    double advance_s = 0.0;
    for (double ms : advance_ms) advance_s += ms * 1e-3;
    const double events = static_cast<double>(stream.store().total_instances());
    const std::uint64_t hits = counter("grca_join_cache_hits") - hits0;
    const std::uint64_t lookups =
        hits + counter("grca_join_cache_misses") - misses0;
    const double records = static_cast<double>(corpus.records.size());
    const double read_s = tracer.total("telemetry.read_stream");

    result.num("run_s", Tracer::seconds(run1 - run0));
    result.num("advance_p50_ms", percentile(advance_ms, 0.50));
    result.num("advance_p99_ms", percentile(advance_ms, 0.99));
    result.num("records", records);
    result.num("stored", static_cast<double>(stream.stored()));
    result.num("rejected", static_cast<double>(stream.rejected()));
    result.num("dropped_late", static_cast<double>(stream.dropped_late()));
    result.num("correct", static_cast<double>(score.correct));
    result.num("matched", static_cast<double>(score.matched));

    metrics.num("telemetry.read_stream_s", read_s);
    metrics.num("telemetry.records_per_s", ratio(records, read_s));
    metrics.num("telemetry.records", records);
    metrics.num("topology.build_network_s",
                tracer.total("topology.build_network"));
    // Normalize, index, routing replay and extraction run per record and
    // per tick inside StreamingRca: their time is in the apps.* metrics.
    for (const char* name :
         {"collector.normalize_s", "collector.normalize_us_per_record",
          "collector.index_s", "collector.routing_replay_s",
          "collector.routing_changes", "collector.extract_s",
          "storage.open_s", "storage.mapped_bytes", "core.diagnose_s",
          "core.diagnose_serial_s", "core.parallel_speedup"}) {
      metrics.num(name, 0.0);
    }
    metrics.num("collector.rejected_records",
                static_cast<double>(stream.rejected()));
    metrics.num("collector.events", events);
    metrics.num("storage.bytes_written",
                static_cast<double>(counter("grca_storage_bytes_written_total") -
                                    written0));
    metrics.num("storage.persist_dir_bytes",
                static_cast<double>(dir_bytes(persist)));
    metrics.num("storage.bytes_per_event",
                ratio(static_cast<double>(dir_bytes(persist)), events));
    metrics.num("storage.seals",
                static_cast<double>(counter("grca_storage_seals_total") - seals0));
    metrics.num("core.join_cache_hits", static_cast<double>(hits));
    metrics.num("core.join_cache_lookups", static_cast<double>(lookups));
    metrics.num("core.join_cache_hit_ratio",
                ratio(static_cast<double>(hits), static_cast<double>(lookups)));
    metrics.num("core.rule_evals",
                static_cast<double>(counter("grca_engine_rule_evals_total") -
                                    evals0));
    metrics.num("apps.stream_ingest_s", ingest_s);
    metrics.num("apps.stream_ingest_p99_us", percentile(ingest_us, 0.99));
    metrics.num("apps.stream_advance_s", advance_s);
    metrics.num("apps.stream_freeze_s", freeze_advance);
    metrics.num("apps.stream_diagnose_s", diagnose_advance);
    metrics.num("apps.stream_drain_s", tracer.total("apps.stream_drain"));
  }
  result.raw("metrics", metrics.render());
  result.raw("breakdown", breakdown_json(tracer));
  result.num("peak_rss_mb", peak_rss_mb());
  std::ofstream(out / "result.json") << result.render() << "\n";
  if (traced) tracer.write_chrome(out / "trace.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fail(
        "usage: grca_perfbench info|calibrate|reference|batch-trace|stream "
        "[--flag value]...");
  }
  std::string command = argv[1];
  try {
    if (command == "info") return cmd_info();
    Args args = parse_args(argc, argv);
    if (command == "calibrate") return cmd_calibrate(args);
    if (command == "reference") return cmd_reference(args);
    if (command == "batch-trace") return cmd_batch_trace(args);
    if (command == "stream") return cmd_stream(args);
  } catch (const std::exception& e) {
    std::cerr << "grca_perfbench " << command << ": " << e.what() << "\n";
    return 1;
  }
  fail("unknown command '" + command + "'");
}
