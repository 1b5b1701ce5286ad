// Benchmark helper: the closed loops that produce latency samples, and a
// checker for runtime artifacts.
//
//   perfbench_client serve --port P --plan FILE --seconds S [--threads N]
//   perfbench_client run --seconds S [--out FILE --expect FILE] -- ARGV...
//   perfbench_client check-artifact FILE
//
// Both loops run until S seconds have passed and at least kMinSamples
// operations succeeded (or 2*S + 10 seconds have passed), and print one
// JSON object with the loop's wall time, how many operations were
// attempted and failed, and the latency of every successful one.
//
// `serve` runs N client threads in one process. Each thread takes the
// next request of the plan (a shared cursor, wrapping around), sends it
// to xpdld on 127.0.0.1:P with net::HttpClient (one connection per
// request) and checks the reply; only then does it send its next
// request. Plan lines are tab-separated:
//
//   Q  <expected result count>  <request target>
//   F  <expected status>  <expected ETag>  <body bytes>  <body FNV-1a 64
//      hex>  <request target>  [If-None-Match value]
//
// Latencies are reported per class in microseconds.
//
// `run` starts ARGV as a fresh process, one at a time, and times each
// from spawn to wait4. With --out, FILE is removed before each run and
// must afterwards equal the --expect file byte for byte. It also reports
// each process's peak RSS from wait4. That figure is never below the
// spawning process's own peak RSS (about 3.5 MB for this loop), which is
// why the processes are started from here rather than from the Python
// harness, and why outputs are compared in chunks rather than read whole.
//
// `check-artifact` loads a .xpdlrt file through runtime::Model::load and
// prints the counts the benchmark compares against hand-derived facts.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xpdl/net/client.h"
#include "xpdl/runtime/model.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

// Successful operations per loop: at least 10 beyond the 90th
// percentile.
constexpr long kMinSamples = 120;

/// Decides when a closed loop ends: once `seconds` have passed and
/// kMinSamples operations succeeded, or at 2*seconds + 10 regardless.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : start_(Clock::now()),
        min_end_(start_ + to_clock(seconds)),
        hard_end_(start_ + to_clock(2 * seconds + 10)) {}

  bool reached(Clock::time_point now, long successes) const {
    return (now >= min_end_ && successes >= kMinSamples) || now >= hard_end_;
  }

  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  static Clock::duration to_clock(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  Clock::time_point start_, min_end_, hard_end_;
};

double micros(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

std::string join(const std::vector<double>& values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  return os.str();
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return out;
}

// --- serve ------------------------------------------------------------------

struct PlanEntry {
  bool query = false;
  long expected_count = 0;        // Q
  int expected_status = 0;        // F
  std::string expected_etag;      // F
  std::size_t body_bytes = 0;     // F, status 200
  std::uint64_t body_fnv = 0;     // F, status 200
  std::string url;
  std::vector<xpdl::net::Header> headers;  // F: If-None-Match, if any
};

bool load_plan(const char* path, const std::string& base,
               std::vector<PlanEntry>& plan) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> f = split_tabs(line);
    PlanEntry e;
    if (f[0] == "Q" && f.size() == 3) {
      e.query = true;
      e.expected_count = std::strtol(f[1].c_str(), nullptr, 10);
      e.url = base + f[2];
    } else if (f[0] == "F" && (f.size() == 6 || f.size() == 7)) {
      e.expected_status = std::atoi(f[1].c_str());
      e.expected_etag = f[2];
      e.body_bytes = std::strtoull(f[3].c_str(), nullptr, 10);
      e.body_fnv = std::strtoull(f[4].c_str(), nullptr, 16);
      e.url = base + f[5];
      if (f.size() == 7) e.headers.push_back({"If-None-Match", f[6]});
    } else {
      std::fprintf(stderr, "perfbench_client: bad plan line: %s\n",
                   line.c_str());
      return false;
    }
    plan.push_back(std::move(e));
  }
  return !plan.empty();
}

/// Checks one reply against its plan entry.
bool reply_ok(const PlanEntry& e, const xpdl::net::Response& r) {
  if (e.query) {
    if (r.status != 200) return false;
    std::size_t at = r.body.find("\"count\":");
    if (at == std::string::npos) return false;
    return std::strtol(r.body.c_str() + at + 8, nullptr, 10) ==
           e.expected_count;
  }
  if (r.status != e.expected_status || r.header("ETag") != e.expected_etag) {
    return false;
  }
  if (r.status == 304) return r.body.empty();
  return r.body.size() == e.body_bytes && fnv1a64(r.body) == e.body_fnv;
}

int run_serve(int argc, char** argv) {
  int port = 0;
  const char* plan_path = nullptr;
  double seconds = 1.0;
  int threads = 2;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string_view a = argv[i];
    if (a == "--port") port = std::atoi(argv[i + 1]);
    else if (a == "--plan") plan_path = argv[i + 1];
    else if (a == "--seconds") seconds = std::atof(argv[i + 1]);
    else if (a == "--threads") threads = std::atoi(argv[i + 1]);
    else {
      std::fprintf(stderr, "perfbench_client: unknown option '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  std::vector<PlanEntry> plan;
  if (port <= 0 || port > 65535 || plan_path == nullptr || threads < 1 ||
      !load_plan(plan_path, "http://127.0.0.1:" + std::to_string(port),
                 plan)) {
    std::fprintf(stderr, "perfbench_client serve: bad arguments or plan\n");
    return 2;
  }

  struct Sample {
    bool query;
    bool ok;
    double us;
  };
  std::atomic<std::size_t> cursor{0};
  std::atomic<long> successes{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<Sample>> per_thread(threads);
  const Deadline deadline(seconds);

  auto worker = [&](std::vector<Sample>& out) {
    xpdl::net::HttpClient client;
    while (!stop.load(std::memory_order_relaxed)) {
      const PlanEntry& e = plan[cursor.fetch_add(1) % plan.size()];
      const Clock::time_point t0 = Clock::now();
      auto reply = client.get(e.url, e.headers);
      const Clock::time_point t1 = Clock::now();
      const bool ok = reply.is_ok() && reply_ok(e, *reply);
      out.push_back({e.query, ok, micros(t0, t1)});
      if (deadline.reached(t1, successes.fetch_add(ok) + ok)) stop.store(true);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker, std::ref(per_thread[t]));
  }
  for (std::thread& t : pool) t.join();
  const double elapsed = deadline.elapsed_s();

  std::vector<double> q_us, f_us;
  std::size_t attempted = 0, failed = 0;
  for (const auto& samples : per_thread) {
    for (const Sample& s : samples) {
      ++attempted;
      if (!s.ok) ++failed;
      else (s.query ? q_us : f_us).push_back(s.us);
    }
  }
  std::printf(
      "{\"elapsed_s\": %.6f, \"attempted\": %zu, \"failed\": %zu, "
      "\"query_us\": [%s], \"fetch_us\": [%s]}\n",
      elapsed, attempted, failed, join(q_us).c_str(), join(f_us).c_str());
  return 0;
}

// --- run --------------------------------------------------------------------

/// True if both files exist and hold the same bytes. Compares in small
/// chunks, so this process's own peak RSS stays small (see `run`).
bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  char ca[65536], cb[65536];
  while (true) {
    fa.read(ca, sizeof ca);
    fb.read(cb, sizeof cb);
    const std::streamsize n = fa.gcount();
    if (n != fb.gcount() || std::memcmp(ca, cb, n) != 0) return false;
    if (n < static_cast<std::streamsize>(sizeof ca)) {
      return fa.eof() && fb.eof();
    }
  }
}

/// Starts `argv` with its standard streams on /dev/null and waits for
/// it. Returns false if it could not start or did not exit with 0.
bool spawn_and_wait(char** argv, rusage& usage) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int err =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (err != 0) return false;
  int status = 0;
  if (wait4(pid, &status, 0, &usage) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int run_processes(int argc, char** argv) {
  double seconds = 1.0;
  std::string out, expect_path;
  int i = 2;
  for (; i + 1 < argc && std::string_view(argv[i]) != "--"; i += 2) {
    std::string_view a = argv[i];
    if (a == "--seconds") seconds = std::atof(argv[i + 1]);
    else if (a == "--out") out = argv[i + 1];
    else if (a == "--expect") expect_path = argv[i + 1];
    else {
      std::fprintf(stderr, "perfbench_client: unknown option '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  if (i + 1 >= argc || std::string_view(argv[i]) != "--" ||
      out.empty() != expect_path.empty()) {
    std::fprintf(stderr, "perfbench_client run: bad arguments\n");
    return 2;
  }
  char** command = argv + i + 1;

  std::vector<double> ms, rss_mb;
  long attempted = 0, failed = 0;
  const Deadline deadline(seconds);
  while (!deadline.reached(Clock::now(), static_cast<long>(ms.size()))) {
    if (!out.empty()) ::unlink(out.c_str());
    ++attempted;
    rusage usage{};
    const Clock::time_point t0 = Clock::now();
    const bool exited_ok = spawn_and_wait(command, usage);
    const Clock::time_point t1 = Clock::now();
    if (!exited_ok || (!out.empty() && !same_bytes(out, expect_path))) {
      ++failed;
      continue;
    }
    ms.push_back(micros(t0, t1) / 1e3);
    rss_mb.push_back(usage.ru_maxrss / 1024.0);
  }
  std::printf(
      "{\"elapsed_s\": %.6f, \"attempted\": %ld, \"failed\": %ld, "
      "\"ms\": [%s], \"rss_mb\": [%s]}\n",
      deadline.elapsed_s(), attempted, failed, join(ms).c_str(),
      join(rss_mb).c_str());
  return 0;
}

// --- check-artifact ---------------------------------------------------------

int run_check_artifact(const char* path) {
  auto model = xpdl::runtime::Model::load(path);
  if (!model.is_ok()) {
    std::fprintf(stderr, "perfbench_client: %s\n",
                 model.status().to_string().c_str());
    return 1;
  }
  std::printf(
      "{\"nodes\": %zu, \"cpus\": %zu, \"devices\": %zu, "
      "\"cuda_devices\": %zu, \"cores\": %zu, \"host_cores\": %zu, "
      "\"interconnects\": %zu}\n",
      model->node_count(), model->count("cpu"), model->count_devices(),
      model->count_cuda_devices(), model->count_cores(),
      model->count_host_cores(), model->count("interconnect"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "serve") {
    return run_serve(argc, argv);
  }
  if (argc >= 2 && std::string_view(argv[1]) == "run") {
    return run_processes(argc, argv);
  }
  if (argc == 3 && std::string_view(argv[1]) == "check-artifact") {
    return run_check_artifact(argv[2]);
  }
  std::fputs(
      "usage: perfbench_client serve --port P --plan FILE --seconds S "
      "[--threads N]\n"
      "       perfbench_client run --seconds S [--out FILE --expect FILE] "
      "-- ARGV...\n"
      "       perfbench_client check-artifact FILE\n",
      stderr);
  return 2;
}
