// Shared plumbing of the benchmark drivers: clocks, /proc readers, argument
// parsing, percentiles, the in-memory span tracer, and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in ns: the clock Python's time.monotonic() reads, so a
/// driver's timestamps and the launcher's share one time base.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// CPU time (user + system) of this process, seconds, ns resolution.
inline double self_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// CPU time (utime + stime) of another process from /proc/<pid>/stat.
inline double proc_cpu_s(long pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return -1.0;
  // Fields after the parenthesised command name; utime/stime are 14/15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(line.substr(close + 2));
  std::string tok;
  unsigned long long utime = 0, stime = 0;
  for (int field = 3; rest >> tok; ++field) {
    if (field == 14) utime = std::strtoull(tok.c_str(), nullptr, 10);
    if (field == 15) {
      stime = std::strtoull(tok.c_str(), nullptr, 10);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
inline double vm_hwm_mb(long pid) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Seeded stream of uniform draws: the benchmark's only source of inputs.
struct Rng {
  explicit Rng(std::uint64_t seed = 1) : g(seed) {}
  /// Uniform on [0, 1).
  double u() { return static_cast<double>(g() >> 11) * 0x1.0p-53; }
  /// Uniform on {0, ..., n-1}; n >= 1.
  std::size_t pick(std::size_t n) {
    return std::min(n - 1,
                    static_cast<std::size_t>(u() * static_cast<double>(n)));
  }
  std::mt19937_64 g;
};

/// Port a daemon wrote to `path`, waiting up to two minutes; 0 if none.
inline std::uint16_t wait_port(const std::string& path) {
  const std::int64_t deadline = now_ns() + 120'000'000'000LL;
  while (now_ns() < deadline) {
    std::ifstream f(path);
    int port = 0;
    if (f >> port && port > 0) return static_cast<std::uint16_t>(port);
    ::usleep(50);
  }
  return 0;
}

/// Timed launch, first half: tell run.py this driver is up, so it spawns
/// the daemons only now and set-up time counts their boot, not the
/// driver's own start.
inline void announce_up() {
  std::printf("up\n");
  std::fflush(stdout);
}

/// Timed launch, second half: the daemons' pids, one comma-separated line
/// on stdin, which run.py writes once it has spawned them.
inline std::vector<long> read_pids() {
  std::vector<long> out;
  std::string line, tok;
  if (!std::getline(std::cin, line)) return out;
  std::stringstream ss(line);
  while (std::getline(ss, tok, ',')) out.push_back(std::atol(tok.c_str()));
  return out;
}

/// `--key=value` arguments.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string a = argv[i];
      const std::size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) continue;
      kv_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  std::string str(const std::string& k, const std::string& def = "") const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second;
  }
  long num(const std::string& k, long def) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : std::atol(it->second.c_str());
  }
  double real(const std::string& k, double def) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Nearest-rank percentile of `v` (sorted in place), q in [0, 1].
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size() - 1) + 0.5));
  return v[idx];
}

/// Highest of {0.99, 0.95, 0.9} with at least ten samples beyond it.
inline double tail_quantile(std::size_t samples) {
  for (double q : {0.99, 0.95, 0.9}) {
    if ((1.0 - q) * static_cast<double>(samples) >= 10.0) return q;
  }
  return 0.5;
}

/// a / b, or 0 when nothing was counted.
inline double per(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Median of `v` (copied).
inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Completions and latencies of the measured window, kept per slice of
/// about one second: an end-to-end figure is the median over the slices,
/// so one stalled second does not move it.
class Window {
 public:
  void start(std::int64_t ws, std::int64_t we) {
    ws_ = ws;
    we_ = we;
    const int n = std::max(1, static_cast<int>((we - ws) / 1000000000LL));
    slice_ns_ = (we - ws) / n;
    ops_.assign(static_cast<std::size_t>(n), 0);
    lat_.assign(static_cast<std::size_t>(n), {});
  }
  bool contains(std::int64_t t) const { return t >= ws_ && t < we_; }
  /// An operation completed at t (counted when inside the window).
  void op(std::int64_t t) {
    if (contains(t)) ++ops_[slice(t)];
  }
  /// An admission request sent at t0 and decided at t1.
  void admission(std::int64_t t0, std::int64_t t1) {
    if (!contains(t1)) return;
    ++ops_[slice(t1)];
    lat_[slice(t1)].push_back(static_cast<float>((t1 - t0) / 1e3));
  }
  void merge(const Window& o) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      ops_[i] += o.ops_[i];
      lat_[i].insert(lat_[i].end(), o.lat_[i].begin(), o.lat_[i].end());
    }
  }
  long total_ops() const {
    long n = 0;
    for (long k : ops_) n += k;
    return n;
  }
  std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& l : lat_) n += l.size();
    return n;
  }
  double ops_per_s() const {
    std::vector<double> v;
    for (long k : ops_) v.push_back(static_cast<double>(k) * 1e9 /
                                    static_cast<double>(slice_ns_));
    return median(v);
  }
  /// Median over slices of each slice's q-quantile latency, µs.
  double latency(double q) const {
    std::vector<double> v;
    for (const auto& l : lat_) {
      std::vector<double> d(l.begin(), l.end());
      v.push_back(percentile(d, q));
    }
    return median(v);
  }
  /// The highest quantile with ten samples beyond it in every slice.
  double tail_q() const {
    std::size_t least = SIZE_MAX;
    for (const auto& l : lat_) least = std::min(least, l.size());
    return tail_quantile(least);
  }
  int slices() const { return static_cast<int>(ops_.size()); }

 private:
  std::size_t slice(std::int64_t t) const {
    return std::min(ops_.size() - 1,
                    static_cast<std::size_t>((t - ws_) / slice_ns_));
  }
  std::int64_t ws_ = 0, we_ = 0, slice_ns_ = 1;
  std::vector<long> ops_;
  std::vector<std::vector<float>> lat_;
};

/// One traced interval around a call into a layer of the program.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t rid = 0;     ///< request the span belongs to
};

/// Per-thread span recorder: spans stay in memory until write_csv at the
/// end of the run. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::uint32_t id_base = 0)
      : enabled_(enabled), next_id_(id_base + 1) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// RAII span; nests under the innermost open span of this tracer.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t rid) : t_(t) {
      if (!t_.enabled_) return;
      idx_ = t_.spans_.size();
      Span s;
      s.name = name;
      s.id = t_.next_id_++;
      s.parent = t_.open_.empty() ? 0 : t_.open_.back();
      s.rid = rid;
      t_.open_.push_back(s.id);
      t_.spans_.push_back(s);
      t_.spans_[idx_].start_ns = now_ns();
    }
    ~Scope() {
      if (!t_.enabled_) return;
      t_.spans_[idx_].end_ns = now_ns();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t idx_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration and count of the spans named `name`.
  struct Total {
    double ns = 0.0;
    double n = 0.0;
    double mean_ns() const { return n > 0.0 ? ns / n : 0.0; }
  };
  Total total(const char* name) const {
    Total t;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        t.ns += static_cast<double>(s.end_ns - s.start_ns);
        t.n += 1.0;
      }
    }
    return t;
  }

  void append(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  /// name,start_ns,end_ns,id,parent,rid — one line per span.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("name,start_ns,end_ns,id,parent,rid\n", f);
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%lld,%lld,%u,%u,%llu\n", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.id, s.parent,
                   static_cast<unsigned long long>(s.rid));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::uint32_t next_id_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Flat JSON object builder for a driver's result line.
class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(k, buf);
  }
  void integer(const std::string& k, long long v) {
    add(k, std::to_string(v));
  }
  void boolean(const std::string& k, bool v) { add(k, v ? "true" : "false"); }
  void text(const std::string& k, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (c == '\n') {
        esc += "\\n";
        continue;
      }
      esc += c;
    }
    add(k, "\"" + esc + "\"");
  }
  void errors(const std::vector<std::string>& errs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < errs.size() && i < 20; ++i) {
      if (i) arr += ",";
      JsonOut one;
      one.text("e", errs[i]);
      const std::string s = one.str();
      arr += s.substr(5, s.size() - 6);  // the quoted value of {"e":...}
    }
    add("errors", arr + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", str().c_str()); }

 private:
  void add(const std::string& k, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + raw;
  }
  std::string body_;
};

/// The window's end-to-end figures into a driver's result line.
inline void put_window(JsonOut& out, const Window& w) {
  const double q = w.tail_q();
  out.integer("ops_window", w.total_ops());
  out.integer("slices", w.slices());
  out.integer("latency_samples", static_cast<long long>(w.samples()));
  out.num("ops_per_s", w.ops_per_s());
  out.num("latency_tail_q", q);
  out.num("latency_p50_us", w.latency(0.5));
  out.num("latency_tail_us", w.latency(q));
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
