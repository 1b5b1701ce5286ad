// The benchmark's traced in-process run.
//
// Calls each module's public functions on the benchmark's inputs, the
// way xpdlc and xpdld call them, and records a span around every call:
// name, start, end, parent and the operator-new count inside it
// (alloc_count.cpp). Spans stay in memory and are written to --spans
// when the run ends. A layer's time is its span's self time (duration
// minus its children); every metric is the median over kReps
// repetitions. The same calls also run untraced, interleaved with the
// traced repetitions, and the difference of the two totals is reported
// as the tracing overhead.
//
//   perfbench_trace --repo DIR --model REF --reference FILE.xpdlrt
//                   --work DIR --queries FILE --fetches FILE
//                   --seed N [--spans FILE]
//
// --reference is the artifact xpdlc wrote for REF; the in-process cold
// and warm paths must reproduce it byte for byte. --queries lines are
// "<expected count>\t<query>", --fetches lines are
// "<descriptor>\t<expected status>\t<If-None-Match or empty>". --work
// is an empty scratch directory for caches and written artifacts.
//
// Prints one JSON object: {"attempted", "failed", "metrics": {...}}.
// Failed checks are also described on stderr.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.h"
#include "xpdl/compose/compose.h"
#include "xpdl/net/http.h"
#include "xpdl/net/http_transport.h"
#include "xpdl/net/repo_service.h"
#include "xpdl/opt/engine.h"
#include "xpdl/opt/opt.h"
#include "xpdl/query/query.h"
#include "xpdl/repository/repository.h"
#include "xpdl/runtime/model.h"
#include "xpdl/util/io.h"
#include "xpdl/xml/xml.h"

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans -----------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t allocs = 0;
};

struct Tracer {
  bool enabled = true;
  std::vector<SpanRecord> spans;
  std::vector<int> open;
};

Tracer g_tracer;

/// RAII span; records nothing while the tracer is disabled.
class Span {
 public:
  explicit Span(std::string name) {
    if (!g_tracer.enabled) return;
    index_ = static_cast<int>(g_tracer.spans.size());
    SpanRecord r;
    r.name = std::move(name);
    r.parent = g_tracer.open.empty() ? -1 : g_tracer.open.back();
    g_tracer.spans.push_back(std::move(r));
    g_tracer.open.push_back(index_);
    allocs_at_start_ = perfbench::allocations();
    g_tracer.spans[index_].start_ns = now_ns();
  }
  ~Span() {
    if (index_ < 0) return;
    const std::int64_t end = now_ns();
    SpanRecord& r = g_tracer.spans[index_];
    r.end_ns = end;
    r.allocs = perfbench::allocations() - allocs_at_start_;
    g_tracer.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
  std::uint64_t allocs_at_start_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Self time (ms) of every span with this name: duration minus the
/// duration of its direct children.
std::vector<double> self_ms(std::string_view name) {
  std::vector<std::int64_t> child_ns(g_tracer.spans.size(), 0);
  for (const SpanRecord& r : g_tracer.spans) {
    if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const SpanRecord& r = g_tracer.spans[i];
    if (r.name == name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) /
                    1e6);
    }
  }
  return out;
}

std::vector<double> allocs_of(std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& r : g_tracer.spans) {
    if (r.name == name) out.push_back(static_cast<double>(r.allocs));
  }
  return out;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const SpanRecord& r = g_tracer.spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << r.name
        << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
        << ", \"parent\": " << r.parent << ", \"allocs\": " << r.allocs
        << "}\n";
  }
}

// --- checks ----------------------------------------------------------------

int g_attempted = 0;
int g_failed = 0;

/// Counts one checked operation; describes a failure on stderr.
bool check(bool ok, const std::string& what) {
  ++g_attempted;
  if (!ok) {
    ++g_failed;
    std::fprintf(stderr, "perfbench_trace: check failed: %s\n", what.c_str());
  }
  return ok;
}

template <typename T>
bool check_ok(const xpdl::Result<T>& r, const std::string& what) {
  return check(r.is_ok(), what + (r.is_ok() ? "" : ": " +
                                      r.status().to_string()));
}

bool check_status(const xpdl::Status& s, const std::string& what) {
  return check(s.is_ok(), what + (s.is_ok() ? "" : ": " + s.to_string()));
}

// --- inputs ----------------------------------------------------------------

struct Args {
  std::string repo;
  std::string model;
  std::string reference;
  std::string work;
  std::string queries;
  std::string fetches;
  std::string spans;
  std::uint64_t seed = 1;
};

// Repetitions of every traced call; each metric is their median.
constexpr int kReps = 9;

struct QueryCase {
  long expected = 0;
  std::string text;
};

struct FetchCase {
  std::string name;
  int expected_status = 0;
  std::string if_none_match;
};

std::vector<std::vector<std::string>> read_tsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> row;
    std::size_t start = 0;
    while (true) {
      std::size_t tab = line.find('\t', start);
      row.push_back(line.substr(start, tab - start));
      if (tab == std::string::npos) break;
      start = tab + 1;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A 16-node XScluster-style system; the seed picks each node's two GPU
/// models and their L1/shared-memory splits.
std::string synthetic_cluster16(std::mt19937_64& rng) {
  static const char* kGpus[] = {"Nvidia_K20c", "Nvidia_K40c"};
  static const int kSplits[][2] = {{16, 48}, {32, 32}, {48, 16}};
  std::ostringstream os;
  os << "<system id=\"bench_cluster16\"><cluster>\n"
     << "<group prefix=\"n\" quantity=\"16\"><node>\n"
     << "<group id=\"cpu1\">"
     << "<socket><cpu id=\"PE0\" type=\"Intel_Xeon_E5_2630L\"/></socket>"
     << "<socket><cpu id=\"PE1\" type=\"Intel_Xeon_E5_2630L\"/></socket>"
     << "</group>\n"
     << "<group prefix=\"main_mem\" quantity=\"4\">"
     << "<memory type=\"DDR3_4G\"/></group>\n";
  for (int g = 1; g <= 2; ++g) {
    const char* gpu = kGpus[rng() % 2];
    const int* split = kSplits[rng() % 3];
    os << "<device id=\"gpu" << g << "\" type=\"" << gpu << "\">"
       << "<param name=\"L1size\" size=\"" << split[0] << "\" unit=\"KB\"/>"
       << "<param name=\"shmsize\" size=\"" << split[1] << "\" unit=\"KB\"/>"
       << "</device>\n";
  }
  os << "<interconnects>"
     << "<interconnect id=\"conn1\" type=\"pcie3\" head=\"cpu1\" "
        "tail=\"gpu1\"/>"
     << "<interconnect id=\"conn2\" type=\"pcie3\" head=\"cpu1\" "
        "tail=\"gpu2\"/>"
     << "</interconnects>\n</node></group>\n<interconnects>\n";
  for (int i = 0; i < 16; ++i) {
    os << "<interconnect id=\"ring" << i << "\" type=\"infiniband1\" head=\"n"
       << i << "\" tail=\"n" << (i + 1) % 16 << "\"/>\n";
  }
  os << "</interconnects>\n</cluster></system>\n";
  return os.str();
}

std::size_t count_tag(const xpdl::xml::Element& e, std::string_view tag) {
  std::size_t n = e.tag() == tag ? 1 : 0;
  for (const auto& c : e.children()) n += count_tag(*c, tag);
  return n;
}

xpdl::repository::ScanOptions scan_options(bool cache,
                                           const std::string& dir) {
  xpdl::repository::ScanOptions o;
  o.cache = {/*enabled=*/cache, /*directory=*/dir};
  return o;
}

std::unique_ptr<xpdl::repository::Repository> open_repo(const Args& args) {
  auto repo = std::make_unique<xpdl::repository::Repository>(
      std::vector<std::string>{args.repo});
  repo->set_transport(xpdl::net::make_http_aware_transport());
  return repo;
}

xpdl::net::Request get(const std::string& target,
                       const std::string& if_none_match = "") {
  xpdl::net::Request r;
  r.target = target;
  if (!if_none_match.empty()) r.set_header("If-None-Match", if_none_match);
  return r;
}

long response_count(const std::string& body) {
  std::size_t at = body.find("\"count\":");
  return at == std::string::npos
             ? -1
             : std::strtol(body.c_str() + at + 8, nullptr, 10);
}

// --- the run ---------------------------------------------------------------

class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)), rng_(args_.seed) {}

  int run() {
    auto ref = xpdl::io::read_file(args_.reference);
    if (!check_ok(ref, "read reference artifact")) return finish();
    reference_ = std::move(ref).value();
    for (const auto& row : read_tsv(args_.queries)) {
      if (row.size() == 2) {
        queries_.push_back({std::strtol(row[0].c_str(), nullptr, 10), row[1]});
      }
    }
    for (const auto& row : read_tsv(args_.fetches)) {
      if (row.size() == 3) {
        fetches_.push_back({row[0], std::atoi(row[1].c_str()), row[2]});
      }
    }
    if (!check(!queries_.empty() && !fetches_.empty(), "read query lists")) {
      return finish();
    }

    xml_parse();
    cold_pipeline();
    warm_pipeline();
    cache_store();
    runtime_reads();
    service();
    cluster16();
    optimizer();
    return finish();
  }

 private:
  int finish() {
    if (!args_.spans.empty()) write_spans(args_.spans);
    std::printf("{\"attempted\": %d, \"failed\": %d, \"metrics\": {",
                g_attempted, g_failed);
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
      first = false;
    }
    std::printf("}}\n");
    return 0;
  }

  void metric(const std::string& name, double value) {
    metrics_[name] = value;
  }

  /// xml::parse over every descriptor file of the repository.
  void xml_parse() {
    std::vector<std::string> texts;
    double bytes = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(args_.repo)) {
      const std::string path = entry.path().string();
      if (!entry.is_regular_file() || entry.path().extension() != ".xpdl" ||
          path.find("/.xpdl.cache") != std::string::npos) {
        continue;
      }
      auto text = xpdl::io::read_file(path);
      if (!check_ok(text, "read " + path)) return;
      bytes += static_cast<double>(text->size());
      texts.push_back(std::move(text).value());
    }
    for (int r = 0; r < kReps; ++r) {
      Span span("xml.parse");
      for (const std::string& t : texts) {
        auto doc = xpdl::xml::parse(t);
        if (!doc.is_ok()) {
          check_ok(doc, "xml::parse");
          return;
        }
      }
    }
    std::vector<double> rates;
    for (double ms : self_ms("xml.parse")) rates.push_back(bytes / 1e3 / ms);
    metric("xml.parse_mb_per_s", median(rates));
  }

  /// One cold compile as xpdlc --no-cache --out does it, layer by layer.
  /// Returns the total time in ms (0 after a failed check).
  double cold_once() {
    const std::int64_t t0 = now_ns();
    {
      Span root("pipeline.cold");
      std::unique_ptr<xpdl::repository::Repository> repo;
      std::optional<xpdl::compose::ComposedModel> composed;
      std::optional<xpdl::runtime::Model> model;
      std::string bytes;
      std::vector<std::string> warnings;
      {
        Span s("repository.scan");
        repo = open_repo(args_);
        auto report = repo->scan(scan_options(false, ""));
        if (!check_ok(report, "cold scan")) return 0;
      }
      xpdl::compose::Options options;
      options.run_static_analysis = false;
      xpdl::compose::Composer composer(*repo, options);
      {
        Span s("compose.compose");
        auto c = composer.compose(args_.model);
        if (!check_ok(c, "compose")) return 0;
        composed.emplace(std::move(c).value());
      }
      {
        Span s("compose.analysis");
        if (!check_status(
                xpdl::compose::run_static_analyses(*composed, warnings),
                "run_static_analyses")) {
          return 0;
        }
        composed->reindex();
      }
      {
        Span s("runtime.build");
        auto m = xpdl::runtime::Model::from_composed(*composed);
        if (!check_ok(m, "Model::from_composed")) return 0;
        model.emplace(std::move(m).value());
      }
      {
        Span s("runtime.serialize");
        bytes = model->serialize();
      }
      {
        Span s("util.write");
        check_status(xpdl::io::write_file(args_.work + "/cold.xpdlrt", bytes),
                     "write cold artifact");
      }
      check(bytes == reference_,
            "in-process cold artifact equals the xpdlc artifact");
      artifact_bytes_ = static_cast<double>(bytes.size());
      {
        Span s("tools.teardown");
        model.reset();
        composed.reset();
        repo.reset();
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

  double cold_once(bool traced) {
    g_tracer.enabled = traced;
    const double ms = cold_once();
    g_tracer.enabled = true;
    return ms;
  }

  void cold_pipeline() {
    std::vector<double> traced, untraced;
    for (int r = 0; r < kReps; ++r) {
      // Alternate which side goes first so drift hits both equally.
      if (r % 2 == 0) {
        traced.push_back(cold_once(true));
        untraced.push_back(cold_once(false));
      } else {
        untraced.push_back(cold_once(false));
        traced.push_back(cold_once(true));
      }
    }
    const char* layers[] = {"repository.scan", "compose.compose",
                            "compose.analysis", "runtime.build",
                            "runtime.serialize", "util.write",
                            "tools.teardown"};
    for (const char* layer : layers) {
      metric(std::string(layer) + "_ms", median(self_ms(layer)));
    }
    metric("compose.allocs", median(allocs_of("compose.compose")));
    metric("runtime.build_allocs", median(allocs_of("runtime.build")));
    metric("runtime.artifact_bytes", artifact_bytes_);
    metric("trace.overhead_ms", median(traced) - median(untraced));
  }

  /// The warm compile (xpdlc --cache-dir DIR --out) against a cache one
  /// in-process run filled.
  void warm_pipeline() {
    const std::string dir = args_.work + "/warm-cache";
    {
      auto repo = open_repo(args_);
      if (!check_ok(repo->scan(scan_options(true, dir)), "fill scan")) return;
      xpdl::compose::Composer composer(*repo);
      auto a = composer.compose_runtime(args_.model);
      if (!check_ok(a, "fill compose_runtime")) return;
      check(!a->cache_hit, "the fill run misses the empty cache");
    }
    std::vector<double> hits;
    for (int r = 0; r < kReps; ++r) {
      Span root("pipeline.warm");
      std::unique_ptr<xpdl::repository::Repository> repo;
      std::optional<xpdl::compose::RuntimeArtifact> artifact;
      {
        Span s("repository.scan_warm");
        repo = open_repo(args_);
        auto report = repo->scan(scan_options(true, dir));
        if (!check_ok(report, "warm scan")) return;
        hits.push_back(static_cast<double>(report->cache_hits));
      }
      {
        Span s("cache.runtime_hit");
        xpdl::compose::Composer composer(*repo);
        auto a = composer.compose_runtime(args_.model);
        if (!check_ok(a, "warm compose_runtime")) return;
        artifact.emplace(std::move(a).value());
      }
      check(artifact->cache_hit, "warm compose_runtime hits the cache");
      {
        Span s("util.write_warm");
        check_status(xpdl::io::write_file(args_.work + "/warm.xpdlrt",
                                          artifact->bytes),
                     "write warm artifact");
      }
      check(artifact->bytes == reference_,
            "in-process warm artifact equals the xpdlc artifact");
      {
        Span s("tools.teardown_warm");
        artifact.reset();
        repo.reset();
      }
    }
    const char* layers[] = {"repository.scan_warm", "cache.runtime_hit",
                            "util.write_warm", "tools.teardown_warm"};
    for (const char* layer : layers) {
      metric(std::string(layer) + "_ms", median(self_ms(layer)));
    }
    metric("repository.cache_hits", median(hits));
  }

  /// What Composer::compose_runtime pays to store its snapshots: the
  /// call into an empty cache minus the call with the cache off (each
  /// after its own scan, which is not timed).
  void cache_store() {
    for (int r = 0; r < kReps; ++r) {
      const std::string dir = args_.work + "/store-cache-" + std::to_string(r);
      for (int side = 0; side < 2; ++side) {
        // Alternate which side goes first.
        const bool cached = (side == 0) == (r % 2 == 0);
        auto repo = open_repo(args_);
        if (!check_ok(repo->scan(scan_options(cached, dir)), "store scan")) {
          return;
        }
        xpdl::compose::Composer composer(*repo);
        Span s(cached ? "cache.compose_runtime_store"
                      : "cache.compose_runtime_off");
        auto a = composer.compose_runtime(args_.model);
        if (!check_ok(a, "store compose_runtime")) return;
        check(!a->cache_hit, "compose_runtime misses an empty cache");
      }
      std::filesystem::remove_all(dir);
    }
    std::vector<double> store = self_ms("cache.compose_runtime_store");
    std::vector<double> off = self_ms("cache.compose_runtime_off");
    std::vector<double> diffs;
    for (std::size_t i = 0; i < store.size(); ++i) {
      diffs.push_back(store[i] - off[i]);
    }
    metric("cache.store_ms", median(diffs));
  }

  /// Model::deserialize, getters, find_by_id and queries on the artifact.
  void runtime_reads() {
    std::optional<xpdl::runtime::Model> model;
    for (int r = 0; r < kReps; ++r) {
      Span s("runtime.load");
      auto m = xpdl::runtime::Model::deserialize(reference_);
      if (!check_ok(m, "Model::deserialize")) return;
      model.emplace(std::move(m).value());
    }
    metric("runtime.load_ms", median(self_ms("runtime.load")));
    metric("runtime.load_allocs", median(allocs_of("runtime.load")));

    // Seeded ids: qualified paths of group members, and bare ids that
    // are unique in the model.
    std::vector<std::string> ids;
    for (int i = 0; i < 64; ++i) {
      const std::string node = "XScluster.n" + std::to_string(rng_() % 4);
      switch (rng_() % 5) {
        case 0:
          ids.push_back(node + ".gpu" + std::to_string(1 + rng_() % 2));
          break;
        case 1:
          ids.push_back(node + ".cpu1.PE" + std::to_string(rng_() % 2));
          break;
        case 2:
          ids.push_back(node + ".main_mem" + std::to_string(rng_() % 4));
          break;
        case 3:
          ids.push_back("conn" + std::to_string(3 + rng_() % 4));
          break;
        default:
          ids.push_back("n" + std::to_string(rng_() % 4));
          break;
      }
    }
    std::vector<xpdl::runtime::Node> nodes;
    for (const std::string& id : ids) {
      auto n = model->find_by_id(id);
      if (!check(n.has_value(), "find_by_id(" + id + ")")) return;
      nodes.push_back(*n);
    }
    constexpr int kCalls = 200000;
    std::vector<double> find_ns, get_ns;
    std::size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      std::int64_t t0 = now_ns();
      for (int i = 0; i < kCalls; ++i) {
        auto n = model->find_by_id(ids[i % ids.size()]);
        sink += n.has_value() ? n->index() : 0;
      }
      find_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
      t0 = now_ns();
      for (int i = 0; i < kCalls; ++i) {
        sink += nodes[i % nodes.size()].attribute_or("id", "").size();
      }
      get_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    }
    check(sink != 0, "getters returned values");
    metric("runtime.find_by_id_ns", median(find_ns));
    metric("runtime.getter_ns", median(get_ns));

    for (int r = 0; r < kReps; ++r) {
      for (const QueryCase& q : queries_) {
        Span s("query.select");
        auto result = xpdl::query::select(*model, q.text);
        if (!check_ok(result, "select " + q.text)) return;
        check(static_cast<long>(result->size()) == q.expected,
              "select " + q.text + " count");
      }
    }
    metric("query.select_ms", median(self_ms("query.select")));
  }

  /// RepoService::handle in-process: the xpdld request core without
  /// sockets.
  void service() {
    xpdl::repository::ScanOptions scan =
        scan_options(true, args_.work + "/service-cache");
    auto svc = xpdl::net::RepoService::create({args_.repo}, scan);
    if (!check_ok(svc, "RepoService::create")) return;
    // Requests are built before the timed calls.
    std::vector<xpdl::net::Request> query_requests, fetch_requests;
    for (const QueryCase& q : queries_) {
      query_requests.push_back(
          get("/v1/query?model=" + xpdl::net::url_encode(args_.model) +
              "&q=" + xpdl::net::url_encode(q.text)));
    }
    for (const FetchCase& f : fetches_) {
      fetch_requests.push_back(
          get("/v1/descriptors/" + xpdl::net::url_encode(f.name),
              f.if_none_match));
    }
    // The first query composes the model; it is set-up, not measured.
    xpdl::net::Response first = (*svc)->handle(query_requests[0]);
    if (!check(first.status == 200, "first service query")) return;
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t i = 0; i < queries_.size(); ++i) {
        xpdl::net::Response resp;
        {
          Span s("net.service_query");
          resp = (*svc)->handle(query_requests[i]);
        }
        check(resp.status == 200 &&
                  response_count(resp.body) == queries_[i].expected,
              "service query " + queries_[i].text);
      }
      for (std::size_t i = 0; i < fetches_.size(); ++i) {
        xpdl::net::Response resp;
        {
          Span s("net.service_fetch");
          resp = (*svc)->handle(fetch_requests[i]);
        }
        check(resp.status == fetches_[i].expected_status,
              "service fetch " + fetches_[i].name + " status");
      }
    }
    metric("net.service_query_ms", median(self_ms("net.service_query")));
    std::vector<double> fetch_us = self_ms("net.service_fetch");
    for (double& v : fetch_us) v *= 1e3;
    metric("net.service_fetch_us", median(fetch_us));
  }

  /// Compose of a seeded 16-node synthetic cluster (analysis included).
  void cluster16() {
    auto doc = xpdl::xml::parse(synthetic_cluster16(rng_));
    if (!check_ok(doc, "parse cluster16")) return;
    auto repo = open_repo(args_);
    if (!check_ok(repo->scan(scan_options(false, "")), "cluster16 scan")) {
      return;
    }
    xpdl::compose::Composer composer(*repo);
    for (int r = 0; r < kReps; ++r) {
      std::optional<xpdl::compose::ComposedModel> composed;
      {
        Span s("compose.cluster16");
        auto c = composer.compose(*doc->root);
        if (!check_ok(c, "compose cluster16")) return;
        composed.emplace(std::move(c).value());
      }
      check(count_tag(composed->root(), "device") == 32,
            "cluster16 has 32 devices");
    }
    metric("compose.cluster16_ms", median(self_ms("compose.cluster16")));
  }

  /// opt::Engine on the composed model: compile, one loose query (P1
  /// meets the deadline) and one tight query (P1 ruled out, two or more
  /// states left), which exhausts the node budget today.
  void optimizer() {
    auto repo = open_repo(args_);
    if (!check_ok(repo->scan(scan_options(false, "")), "opt scan")) return;
    xpdl::compose::Composer composer(*repo);
    auto composed = composer.compose(args_.model);
    if (!check_ok(composed, "opt compose")) return;
    std::optional<xpdl::opt::Engine> engine;
    for (int r = 0; r < kReps; ++r) {
      Span s("opt.engine_compile");
      auto e = xpdl::opt::Engine::from_element(composed->root());
      if (!check_ok(e, "Engine::from_element")) return;
      engine.emplace(std::move(e).value());
    }
    metric("opt.engine_compile_ms", median(self_ms("opt.engine_compile")));

    std::uniform_real_distribution<double> loose_ghz(0.6, 1.1);
    std::uniform_real_distribution<double> tight_ghz(1.3, 2.0);
    xpdl::opt::DvfsQuery loose;
    loose.cycles = 1e9;
    loose.deadline_s = loose.cycles / (loose_ghz(rng_) * 1e9);
    for (int r = 0; r < kReps; ++r) {
      Span s("opt.loose_query");
      auto plan = engine->minimize_energy(loose);
      if (!check_ok(plan, "loose minimize_energy")) return;
      check(plan->feasible, "loose query is feasible");
    }
    std::vector<double> loose_us = self_ms("opt.loose_query");
    for (double& v : loose_us) v *= 1e3;
    metric("opt.loose_query_us", median(loose_us));

    // minimize_energy drops the search statistics when the budget runs
    // out, so the tight query runs its two steps (compile + minimize)
    // directly to keep the node count.
    xpdl::opt::DvfsQuery tight;
    tight.cycles = 1e9;
    tight.deadline_s = tight.cycles / (tight_ghz(rng_) * 1e9);
    std::optional<xpdl::opt::MinimizeResult> result;
    {
      Span s("opt.tight_query");
      auto problem = engine->compile(tight);
      if (!check_ok(problem, "tight compile")) return;
      auto m = xpdl::opt::Optimizer().minimize(
          *problem, xpdl::opt::Engine::kEnergyObjective);
      if (!check_ok(m, "tight minimize")) return;
      result.emplace(std::move(m).value());
    }
    metric("opt.tight_query_ms", median(self_ms("opt.tight_query")));
    metric("opt.tight_query_nodes", static_cast<double>(result->stats.nodes));
    metric("opt.tight_query_exhausted", result->exhausted_budget ? 1 : 0);
  }

  Args args_;
  std::mt19937_64 rng_;
  std::string reference_;
  std::vector<QueryCase> queries_;
  std::vector<FetchCase> fetches_;
  std::map<std::string, double> metrics_;
  double artifact_bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view a = argv[i];
    std::string v = argv[i + 1];
    if (a == "--repo") args.repo = v;
    else if (a == "--model") args.model = v;
    else if (a == "--reference") args.reference = v;
    else if (a == "--work") args.work = v;
    else if (a == "--queries") args.queries = v;
    else if (a == "--fetches") args.fetches = v;
    else if (a == "--spans") args.spans = v;
    else if (a == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else {
      std::fprintf(stderr, "perfbench_trace: unknown option '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  if (args.repo.empty() || args.model.empty() || args.reference.empty() ||
      args.work.empty() || args.queries.empty() || args.fetches.empty()) {
    std::fputs(
        "usage: perfbench_trace --repo DIR --model REF --reference FILE "
        "--work DIR --queries FILE --fetches FILE --seed N [--spans FILE]\n",
        stderr);
    return 2;
  }
  return Run(std::move(args)).run();
}
