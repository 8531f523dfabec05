// wire_mem / wire_journal: a seeded signaling stream against a qosbbd
// daemon over pipelined loopback connections, the checks of every reply,
// and the in-process replay of the recorded request bytes that gives the
// traced run its per-layer times. A timed wire-run says it is up before
// the daemon is launched and then reads the daemon's pid on stdin
// (announce_up, read_pids).
//
//   perfbench_driver wire-run    --port-file=F --seed=N --seconds=S ...
//   perfbench_driver wire-final  --port-file=F --ledger=L
//   perfbench_driver wire-replay --record=R --mode=mem|journal ...

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "common.h"
#include "core/admission_engine.h"
#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/journal.h"
#include "core/wire.h"
#include "flowsim/workload.h"
#include "net/client.h"
#include "net/framing.h"
#include "topo/builders.h"

namespace perfbench {

using namespace qosbb;

namespace {

// ---------------------------------------------------------------------------
// Topology and request stream
// ---------------------------------------------------------------------------

struct WireTopo {
  int pairs = 64;
  DomainSpec spec;
  std::vector<std::vector<pbcheck::Hop>> hops;  ///< per pair, from the spec
  double bottleneck = 0.0;                      ///< L->R capacity, b/s
};

WireTopo make_topo(const Args& a) {
  WireTopo t;
  t.pairs = static_cast<int>(a.num("pairs", 64));
  DumbbellOptions o;
  o.edge_pairs = t.pairs;
  o.access_capacity = a.real("access-mbps", 100000.0) * 1e6;
  o.bottleneck_capacity = a.real("bottleneck-mbps", 400.0) * 1e6;
  t.spec = dumbbell_topology(o);
  for (int k = 0; k < t.pairs; ++k) {
    const std::vector<std::string> nodes = dumbbell_path(k);
    std::vector<pbcheck::Hop> hops;
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      const LinkSpec& l = t.spec.link(nodes[i], nodes[i + 1]);
      hops.push_back({l.capacity, l.propagation_delay});
    }
    t.hops.push_back(std::move(hops));
  }
  // Every pair's path crosses L->R and the access links are wider, so the
  // bottleneck is the only link that can fill.
  t.bottleneck = t.spec.link("L", "R").capacity;
  return t;
}

pbcheck::Profile to_check(const TrafficProfile& p) {
  return {p.sigma, p.rho, p.peak, p.l_max};
}

/// A connection tears down one of its live flows after every
/// kAdmitsPerTeardown admits, the mix the repository's own throughput
/// benchmark drives qosbbd with (loadgen --teardown-every=8).
constexpr long kAdmitsPerTeardown = 8;
/// Delay requirements are uniform on [kDelayLo, kDelayHi] seconds: the low
/// end is below what even the peak rate meets (kNoFeasibleRate), the high
/// end lets ρ bind.
constexpr double kDelayLo = 0.3;
constexpr double kDelayHi = 3.0;


/// A request in flight on a connection.
struct InFlight {
  std::int64_t t_send = 0;
  double d_req = 0.0;
  std::size_t live_slot = 0;  ///< teardown: index of the target in `live`
  std::uint16_t pair = 0;
  std::uint8_t kind = 0;  ///< 0 admit, 1 teardown
  std::uint8_t type = 0;  ///< Table-1 traffic type
};

FlowServiceRequest make_request(int type, int pair, double d_req) {
  FlowServiceRequest req;
  req.profile = paper_traffic_type(type);
  req.e2e_delay_req = d_req;
  req.ingress = "I" + std::to_string(pair);
  req.egress = "E" + std::to_string(pair);
  return req;
}

bool write_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Ledger file: one "flow rate" line per live flow.
std::vector<std::pair<FlowId, double>> read_ledger(const std::string& path) {
  std::vector<std::pair<FlowId, double>> out;
  if (path.empty()) return out;
  std::ifstream f(path);
  unsigned long long flow = 0;
  double rate = 0.0;
  while (f >> flow >> rate) out.emplace_back(flow, rate);
  return out;
}

/// Timestamps are kept as 100 ns ticks from the start of the run: a send
/// rounds down and a receive rounds up, so the ledger bound stays safe.
constexpr std::int64_t kTickNs = 100;

// ---------------------------------------------------------------------------
// One pipelined connection (closed loop: `window` requests in flight)
// ---------------------------------------------------------------------------

struct LiveFlow {
  FlowId flow = kInvalidFlowId;
  double rate = 0.0;
  bool dead = false;  ///< torn down; the slot is free
};

/// A kInsufficientBandwidth (or unlabeled) reject, checked against the
/// ledger after the run.
struct BwReject {
  std::uint32_t t_send = 0, t_recv = 0;
  double d_req = 0.0;
  std::uint16_t pair = 0;
  std::uint8_t type = 0;
  std::uint8_t reason = 0;
};

struct Conn {
  int index = 0;
  Rng gen;
  RequestId rid_base = 0;
  std::int64_t t_base = 0;
  Window win;  ///< the measured window (timed mode)
  const WireTopo* topo = nullptr;

  std::vector<LiveFlow> live;   ///< granted here (or handed over)
  std::vector<std::size_t> idle_live;   ///< live slots with no teardown sent
  std::vector<std::size_t> free_slots;  ///< dead slots, reused by grants
  pbcheck::RateSeries grants, acks;
  std::vector<FlowId> granted_ids;
  std::vector<BwReject> bw_rejects;
  bool unlabeled_ok = false;  ///< journaled daemon: rejects carry kNone
  long admits_since_teardown = 0;
  long attempted = 0, failed = 0, admitted = 0, rejected = 0, torn = 0;
  long no_feasible = 0;
  std::vector<std::string> errors;
  long error_count = 0;

  // Traced run: the request bytes and, per op, {kind, flow, size}.
  std::vector<std::uint8_t> recorded;
  std::vector<std::uint8_t> rec_kind;
  std::vector<FlowId> rec_flow;
  std::vector<std::uint32_t> rec_bytes;

  void add_live(LiveFlow lf) {
    std::size_t slot = live.size();
    if (free_slots.empty()) {
      live.push_back(lf);
    } else {
      slot = free_slots.back();
      free_slots.pop_back();
      live[slot] = lf;
    }
    idle_live.push_back(slot);
  }
  void error(std::string e) {
    ++error_count;
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
  std::uint32_t tick_down(std::int64_t t) const {
    return static_cast<std::uint32_t>((t - t_base) / kTickNs);
  }
  std::uint32_t tick_up(std::int64_t t) const {
    return static_cast<std::uint32_t>((t - t_base + kTickNs - 1) / kTickNs);
  }
};

struct RunConfig {
  std::uint16_t port = 0;
  std::size_t window = 128;
  long quota = -1;             ///< ops per connection (fill mode), or -1
  std::int64_t stop_ns = 0;    ///< stop issuing at (timed mode)
  std::size_t record_cap = 0;  ///< ops whose bytes are recorded
};

/// Socket-side state of one connection.
struct ConnIo {
  BlockingClient client;
  FrameDecoder decoder;
  std::deque<InFlight> pending;
  std::deque<std::size_t> pending_rec;  ///< rec index of pending ops
  std::vector<std::uint8_t> out;
  long issued = 0;
  bool done = false;
};

bool stopped(const ConnIo& io, const RunConfig& cfg) {
  return cfg.quota >= 0 ? io.issued >= cfg.quota : now_ns() >= cfg.stop_ns;
}

/// Generate, encode and queue the connection's next operation.
void issue(Conn& c, ConnIo& io, const RunConfig& cfg) {
  InFlight op;
  WireBuffer msg;
  const RequestId rid = c.rid_base + static_cast<RequestId>(io.issued);
  FlowId target = kInvalidFlowId;
  if (c.admits_since_teardown >= kAdmitsPerTeardown &&
      !c.idle_live.empty()) {
    const std::size_t i = c.gen.pick(c.idle_live.size());
    c.admits_since_teardown = 0;
    op.kind = 1;
    op.live_slot = c.idle_live[i];
    c.idle_live[i] = c.idle_live.back();
    c.idle_live.pop_back();
    target = c.live[op.live_slot].flow;
    msg = encode(TeardownRequest{target, rid});
  } else {
    ++c.admits_since_teardown;
    op.kind = 0;
    op.type = static_cast<std::uint8_t>(c.gen.pick(kPaperTrafficTypes));
    op.pair = static_cast<std::uint16_t>(
        c.gen.pick(static_cast<std::size_t>(c.topo->pairs)));
    op.d_req = kDelayLo + (kDelayHi - kDelayLo) * c.gen.u();
    msg = encode(make_request(op.type, op.pair, op.d_req), rid);
  }
  const WireBuffer framed = frame_net_message(msg);
  io.out.insert(io.out.end(), framed.begin(), framed.end());
  if (c.rec_kind.size() < cfg.record_cap) {
    c.recorded.insert(c.recorded.end(), framed.begin(), framed.end());
    io.pending_rec.push_back(c.rec_kind.size());
    c.rec_kind.push_back(op.kind);
    c.rec_flow.push_back(target);
    c.rec_bytes.push_back(static_cast<std::uint32_t>(framed.size()));
  } else {
    io.pending_rec.push_back(SIZE_MAX);
  }
  op.t_send = now_ns();
  io.pending.push_back(op);
  ++io.issued;
  ++c.attempted;
}

/// Match one reply to the oldest request in flight and check it.
void on_reply(Conn& c, ConnIo& io, const WireBuffer& payload) {
  const InFlight op = io.pending.front();
  io.pending.pop_front();
  const std::size_t rec = io.pending_rec.front();
  io.pending_rec.pop_front();
  const std::int64_t t_recv = now_ns();
  auto type = peek_type(payload);
  if (op.kind == 1) {
    LiveFlow& lf = c.live[op.live_slot];
    std::optional<RejectReply> r;
    if (type.is_ok() && type.value() == MessageType::kRejectReply) {
      auto d = decode_reject_reply(payload);
      if (d.is_ok()) r = d.value();
    }
    if (!r || r->reason != RejectReason::kNone) {
      ++c.failed;  // a failed teardown: the flow stays live
      c.idle_live.push_back(op.live_slot);
      return;
    }
    ++c.torn;
    c.win.op(t_recv);
    c.acks.add(c.tick_up(t_recv), lf.rate);
    lf.dead = true;
    c.free_slots.push_back(op.live_slot);
    return;
  }
  const pbcheck::Profile prof = to_check(paper_traffic_type(op.type));
  const auto& hops = c.topo->hops[op.pair];
  if (type.is_ok() && type.value() == MessageType::kReservationReply) {
    auto r = decode_reservation(payload);
    if (!r.is_ok()) {
      ++c.failed;
      return;
    }
    ++c.admitted;
    const Reservation& res = r.value();
    if (std::string e = pbcheck::check_grant(hops, c.topo->spec.l_max, prof,
                                             op.d_req, res.params.rate,
                                             res.e2e_bound);
        !e.empty()) {
      c.error(e);
    }
    c.grants.add(c.tick_down(op.t_send), res.params.rate);
    c.granted_ids.push_back(res.flow);
    c.add_live({res.flow, res.params.rate});
    if (rec != SIZE_MAX) c.rec_flow[rec] = res.flow;
  } else if (type.is_ok() && type.value() == MessageType::kRejectReply) {
    auto r = decode_reject_reply(payload);
    if (!r.is_ok()) {
      ++c.failed;
      return;
    }
    ++c.rejected;
    const RejectReason reason = r.value().reason;
    if (reason == RejectReason::kNoFeasibleRate) {
      ++c.no_feasible;
      if (std::string e = pbcheck::check_no_feasible(hops, c.topo->spec.l_max,
                                                     prof, op.d_req);
          !e.empty()) {
        c.error(e);
      }
    } else if (reason == RejectReason::kInsufficientBandwidth ||
               (reason == RejectReason::kNone && c.unlabeled_ok)) {
      // kNone: the journaled daemon does not label its rejects; such a
      // reject must satisfy one of the two conditions (checked later).
      c.bw_rejects.push_back({c.tick_down(op.t_send), c.tick_up(t_recv),
                              op.d_req, op.pair, op.type,
                              static_cast<std::uint8_t>(reason)});
    } else {
      c.error(std::string("unexpected reject reason ") +
              reject_reason_name(reason));
    }
  } else {
    ++c.failed;  // a shed, or a reply of the wrong type
    return;
  }
  c.win.admission(op.t_send, t_recv);
}

/// The stream broke: every outstanding request is a lost reply.
void lose(Conn& c, ConnIo& io, const char* why) {
  c.failed += static_cast<long>(io.pending.size());
  c.error(std::string(why) + " with " + std::to_string(io.pending.size()) +
          " replies outstanding");
  io.pending.clear();
  io.done = true;
}

/// Drive several connections from one thread: keep `window` requests in
/// flight on each, and wait for replies on all of them at once.
void run_conns(std::vector<Conn*> conns, const RunConfig& cfg) {
  std::vector<ConnIo> ios(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (Status s = ios[i].client.connect("127.0.0.1", cfg.port); !s.is_ok()) {
      conns[i]->error("connect: " + s.to_string());
      ios[i].done = true;
    }
  }
  std::vector<std::uint8_t> chunk(1 << 16);
  std::vector<pollfd> pfds;
  std::vector<std::size_t> which;
  while (true) {
    pfds.clear();
    which.clear();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      ConnIo& io = ios[i];
      if (io.done) continue;
      while (!stopped(io, cfg) && io.pending.size() < cfg.window) {
        issue(*conns[i], io, cfg);
      }
      if (!io.out.empty()) {
        if (!write_all(io.client.fd(), io.out)) {
          lose(*conns[i], io, "write failed");
          continue;
        }
        io.out.clear();
      }
      if (io.pending.empty()) {
        io.done = true;
        continue;
      }
      pfds.push_back({io.client.fd(), POLLIN, 0});
      which.push_back(i);
    }
    if (pfds.empty()) return;
    if (::poll(pfds.data(), pfds.size(), 10000) <= 0) {
      if (errno == EINTR) continue;
      for (std::size_t k = 0; k < which.size(); ++k) {
        lose(*conns[which[k]], ios[which[k]], "no reply for 10 s");
      }
      return;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      Conn& c = *conns[which[k]];
      ConnIo& io = ios[which[k]];
      const ssize_t n = ::read(io.client.fd(), chunk.data(), chunk.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        lose(c, io, "connection closed");
        continue;
      }
      io.decoder.feed(chunk.data(), static_cast<std::size_t>(n));
      while (true) {
        auto frame = io.decoder.next();
        if (!frame.is_ok()) {
          if (frame.status().code() != StatusCode::kNeedMoreData) {
            lose(c, io, "corrupt reply stream");
          }
          break;
        }
        if (io.pending.empty()) {
          lose(c, io, "reply without a request");
          break;
        }
        on_reply(c, io, frame.value());
      }
    }
  }
}

Result<HealthReply> health(BlockingClient& ctl) {
  if (Status s = ctl.send_message(encode(HealthRequest{})); !s.is_ok()) {
    return s;
  }
  auto reply = ctl.read_message(10000);
  if (!reply.is_ok()) return reply.status();
  return decode_health_reply(reply.value());
}

}  // namespace

// ---------------------------------------------------------------------------
// wire-run: ready probe, warm-up, timed window, drain, reply checks
// ---------------------------------------------------------------------------

int wire_run(const Args& a) {
  const WireTopo topo = make_topo(a);
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const int conns = static_cast<int>(a.num("conns", 4));
  const double seconds = a.real("seconds", 10.0);
  const double warmup = a.real("warmup", 1.0);
  const long fill_ops = a.num("fill-ops", -1);
  const bool journaled = a.num("journal", 0) != 0;
  const std::uint64_t phase = static_cast<std::uint64_t>(a.num("phase", 1));
  const std::int64_t t_base = now_ns() - kTickNs;
  JsonOut out;
  std::vector<std::string> errors;

  // Ready probe: the first answered request (a Health probe). A timed run
  // is up before its daemon is launched.
  if (fill_ops < 0) announce_up();
  const std::uint16_t port = wait_port(a.str("port-file"));
  BlockingClient ctl;
  if (port == 0 || !ctl.connect("127.0.0.1", port).is_ok()) {
    std::fprintf(stderr, "wire-run: daemon never came up\n");
    return 2;
  }
  auto first = health(ctl);
  const std::int64_t t_ready = now_ns();
  if (!first.is_ok()) {
    std::fprintf(stderr, "wire-run: ready probe failed: %s\n",
                 first.status().to_string().c_str());
    return 2;
  }
  out.integer("t_ready_ns", t_ready);
  const std::vector<long> pids = fill_ops < 0 ? read_pids()
                                              : std::vector<long>{};
  const long daemon_pid = pids.empty() ? 0 : pids.front();

  // Flows live before this run (the fill phase), handed to the
  // connections round robin so the stream can tear them down too.
  const auto initial = read_ledger(a.str("ledger-in"));
  if (std::string e = pbcheck::check_live_count(initial.size(),
                                                first.value().live_flows);
      !e.empty()) {
    errors.push_back("at boot: " + e);
  }

  const std::int64_t t_start = now_ns();
  const std::int64_t ws = t_start + static_cast<std::int64_t>(warmup * 1e9);
  const std::int64_t we = ws + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Conn> cs(static_cast<std::size_t>(conns));
  pbcheck::RateSeries initial_series;
  for (int i = 0; i < conns; ++i) {
    Conn& c = cs[static_cast<std::size_t>(i)];
    c.index = i;
    c.gen = Rng(seed * 1000003ULL + phase * 7919ULL +
                static_cast<std::uint64_t>(i));
    c.rid_base = (phase << 56) | (static_cast<std::uint64_t>(i + 1) << 48);
    c.t_base = t_base;
    c.win.start(ws, we);
    c.topo = &topo;
    c.unlabeled_ok = journaled;
  }
  for (std::size_t k = 0; k < initial.size(); ++k) {
    cs[k % cs.size()].add_live({initial[k].first, initial[k].second});
    initial_series.add(0, initial[k].second);
  }

  RunConfig cfg;
  cfg.port = port;
  cfg.window = static_cast<std::size_t>(a.num("window", 128));
  cfg.record_cap = static_cast<std::size_t>(a.num("record-ops", 0)) /
                   static_cast<std::size_t>(conns);
  if (fill_ops >= 0) {
    cfg.quota = fill_ops / conns;
  } else {
    cfg.stop_ns = we;
  }
  // Connections round robin over the load threads.
  const long nthreads =
      std::max(1L, std::min<long>(conns, a.num("threads", 2)));
  std::vector<std::vector<Conn*>> groups(static_cast<std::size_t>(nthreads));
  for (std::size_t i = 0; i < cs.size(); ++i) {
    groups[i % groups.size()].push_back(&cs[i]);
  }
  std::vector<std::thread> threads;
  for (auto& g : groups) {
    threads.emplace_back([&g, &cfg] { run_conns(g, cfg); });
  }

  double cpu0 = 0.0, cpu1 = 0.0;
  if (fill_ops < 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ws - now_ns()));
    cpu0 = daemon_pid > 0 ? proc_cpu_s(daemon_pid) : 0.0;
    std::this_thread::sleep_for(std::chrono::nanoseconds(we - now_ns()));
    cpu1 = daemon_pid > 0 ? proc_cpu_s(daemon_pid) : 0.0;
  }
  for (auto& t : threads) t.join();

  // ---- Checks across connections ----
  long attempted = 0, failed = 0, admitted = 0, rejected = 0, torn = 0;
  long no_feasible = 0, bw = 0, unlabeled = 0;
  Window win;
  win.start(ws, we);
  std::vector<pbcheck::RateSeries> grants{initial_series};
  std::vector<pbcheck::RateSeries> acks;
  std::vector<FlowId> ids;
  for (Conn& c : cs) {
    attempted += c.attempted;
    failed += c.failed;
    admitted += c.admitted;
    rejected += c.rejected;
    torn += c.torn;
    no_feasible += c.no_feasible;
    win.merge(c.win);
    c.win = Window();
    for (const std::string& e : c.errors) {
      errors.push_back("conn " + std::to_string(c.index) + ": " + e);
    }
    if (c.error_count > static_cast<long>(c.errors.size())) {
      errors.push_back("conn " + std::to_string(c.index) + ": " +
                       std::to_string(c.error_count) + " violations in all");
    }
    grants.push_back(std::move(c.grants));
    acks.push_back(std::move(c.acks));
    ids.insert(ids.end(), c.granted_ids.begin(), c.granted_ids.end());
    c.granted_ids = {};
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    errors.push_back("a flow id was granted twice");
  }
  for (const auto& [flow, rate] : initial) {
    if (std::binary_search(ids.begin(), ids.end(), flow)) {
      errors.push_back("a flow live before the run was granted again");
      break;
    }
  }
  ids = {};
  long bw_violations = 0;
  for (const Conn& c : cs) {
    for (const BwReject& r : c.bw_rejects) {
      (r.reason == 0 ? unlabeled : bw)++;
      const auto& hops = topo.hops[r.pair];
      const pbcheck::Profile prof = to_check(paper_traffic_type(r.type));
      const double held = pbcheck::max_held(grants, acks, r.t_send, r.t_recv);
      std::string e = pbcheck::check_insufficient(
          topo.bottleneck, held, hops, topo.spec.l_max, prof, r.d_req);
      if (!e.empty() && r.reason == 0 &&
          pbcheck::check_no_feasible(hops, topo.spec.l_max, prof, r.d_req)
              .empty()) {
        e.clear();
      }
      if (!e.empty() && bw_violations++ < 8) errors.push_back(e);
    }
  }

  // End state: Health against the ledger, and the ledger within capacity.
  std::ofstream ledger_out(a.str("ledger-out"));  // unopened if not given
  std::uint64_t ledger_live = 0;
  double live_rate = 0.0;
  for (const Conn& c : cs) {
    for (const LiveFlow& lf : c.live) {
      if (lf.dead) continue;
      ++ledger_live;
      live_rate += lf.rate;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%llu %.17g\n",
                    static_cast<unsigned long long>(lf.flow), lf.rate);
      ledger_out << buf;
    }
  }
  auto end = health(ctl);
  if (!end.is_ok()) {
    errors.push_back("end health probe: " + end.status().to_string());
  } else {
    if (std::string e =
            pbcheck::check_live_count(ledger_live, end.value().live_flows);
        !e.empty()) {
      errors.push_back("at end: " + e);
    }
    // The daemon was started for this phase: its decision counters cover
    // exactly this client's admits and rejects.
    if (std::string e = pbcheck::check_decisions(
            admitted, rejected, end.value().admits, end.value().rejects);
        !e.empty()) {
      errors.push_back("at end: " + e);
    }
    out.integer("server_live", static_cast<long long>(end.value().live_flows));
    out.integer("journal_lsn", static_cast<long long>(end.value().journal_lsn));
  }
  if (std::string e = pbcheck::check_capacity(live_rate, topo.bottleneck);
      !e.empty()) {
    errors.push_back("ledger: " + e);
  }

  // Recorded request bytes for the traced in-process replay:
  //   per connection: u32 ops, then per op {u8 kind, u64 flow, u32 bytes},
  //   then the bytes.
  if (!a.str("record").empty()) {
    std::ofstream rec(a.str("record"), std::ios::binary);
    for (const Conn& c : cs) {
      const std::uint32_t n = static_cast<std::uint32_t>(c.rec_kind.size());
      rec.write(reinterpret_cast<const char*>(&n), sizeof(n));
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t flow = c.rec_flow[i];
        rec.write(reinterpret_cast<const char*>(&c.rec_kind[i]), 1);
        rec.write(reinterpret_cast<const char*>(&flow), sizeof(flow));
        rec.write(reinterpret_cast<const char*>(&c.rec_bytes[i]),
                  sizeof(std::uint32_t));
      }
      rec.write(reinterpret_cast<const char*>(c.recorded.data()),
                static_cast<std::streamsize>(c.recorded.size()));
    }
  }

  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.integer("admitted", admitted);
  out.integer("rejected", rejected);
  out.integer("rejected_no_feasible", no_feasible);
  out.integer("rejected_bandwidth", bw);
  out.integer("rejected_unlabeled", unlabeled);
  out.integer("torn_down", torn);
  out.integer("ledger_live", static_cast<long long>(ledger_live));
  out.num("ledger_live_rate", live_rate);
  if (fill_ops < 0) {
    put_window(out, win);
    out.num("window_s", static_cast<double>(we - ws) / 1e9);
    out.num("daemon_cpu_s", cpu1 - cpu0);
    out.num("cpu_us_per_op",
            per((cpu1 - cpu0) * 1e6, static_cast<double>(win.total_ops())));
  }
  out.boolean("correct", errors.empty());
  out.errors(errors);
  out.print();
  return 0;
}

// ---------------------------------------------------------------------------
// wire-final: Health of a restarted daemon against the ledger
// ---------------------------------------------------------------------------

int wire_final(const Args& a) {
  JsonOut out;
  std::vector<std::string> errors;
  const std::uint16_t port = wait_port(a.str("port-file"));
  BlockingClient ctl;
  if (port == 0 || !ctl.connect("127.0.0.1", port).is_ok()) {
    std::fprintf(stderr, "wire-final: daemon never came up\n");
    return 2;
  }
  const auto ledger = read_ledger(a.str("ledger"));
  auto h = health(ctl);
  if (!h.is_ok()) {
    std::fprintf(stderr, "wire-final: health: %s\n",
                 h.status().to_string().c_str());
    return 2;
  }
  if (std::string e =
          pbcheck::check_live_count(ledger.size(), h.value().live_flows);
      !e.empty()) {
    errors.push_back("after restart: " + e);
  }
  // Draining every flow to zero is left out: after a long session the
  // daemon's float bookkeeping can abort on the last release of a link
  // (see the FOUND line for node_mib.cc in CHANGES.md).
  out.boolean("correct", errors.empty());
  out.errors(errors);
  out.print();
  return 0;
}

// ---------------------------------------------------------------------------
// wire-replay: the recorded request bytes through the same public functions
// the daemon calls, in process, with a span around each call.
// ---------------------------------------------------------------------------

namespace {

/// JournalFile decorator that times every append (the journal layer's own
/// I/O) around the file-system backing the daemon uses.
class TimingJournal : public JournalFile {
 public:
  TimingJournal(JournalFile& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  Status append(const WireBuffer& bytes) override {
    Tracer::Scope s(tracer_, "journal.append", 0);
    return inner_.append(bytes);
  }
  Result<WireBuffer> read_all() const override { return inner_.read_all(); }
  Status replace(const WireBuffer& bytes) override {
    return inner_.replace(bytes);
  }

 private:
  JournalFile& inner_;
  Tracer& tracer_;
};

struct ReplayConn {
  std::vector<std::uint8_t> kind;
  std::vector<FlowId> flow;
  std::vector<std::uint32_t> bytes;
  std::vector<std::uint8_t> data;
  std::size_t next_op = 0, next_byte = 0;
  FrameDecoder decoder;
};

/// Frames handed to the decoder per read: about what one readable-socket
/// drain delivers with four connections sharing 4 x 128 in flight.
constexpr std::size_t kReplayFramesPerRead = 32;
constexpr std::size_t kMaxAdmitBatch = 256;  ///< the daemon's slab size
constexpr std::size_t kEngineProbeEvery = 4096;

}  // namespace

int wire_replay(const Args& a) {
  const WireTopo topo = make_topo(a);
  const bool journal = a.str("mode") == "journal";
  Tracer tracer(true);
  JsonOut out;
  std::vector<std::string> errors;

  std::vector<ReplayConn> conns;
  {
    std::ifstream rec(a.str("record"), std::ios::binary);
    std::uint32_t n = 0;
    while (rec.read(reinterpret_cast<char*>(&n), sizeof(n))) {
      ReplayConn c;
      std::size_t total = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint8_t kind = 0;
        std::uint64_t flow = 0;
        std::uint32_t bytes = 0;
        rec.read(reinterpret_cast<char*>(&kind), 1);
        rec.read(reinterpret_cast<char*>(&flow), sizeof(flow));
        rec.read(reinterpret_cast<char*>(&bytes), sizeof(bytes));
        c.kind.push_back(kind);
        c.flow.push_back(flow);
        c.bytes.push_back(bytes);
        total += bytes;
      }
      c.data.resize(total);
      rec.read(reinterpret_cast<char*>(c.data.data()),
               static_cast<std::streamsize>(total));
      conns.push_back(std::move(c));
    }
  }

  // Backend, built as qosbbd builds it.
  std::unique_ptr<BandwidthBroker> bb;
  std::unique_ptr<ConcurrentBrokerFront> front;
  std::unique_ptr<FsJournalFile> fs;
  std::unique_ptr<TimingJournal> timed;
  std::unique_ptr<DurableBroker> durable;
  double recovery_s = 0.0;
  if (journal) {
    const std::string path = a.str("journal");
    fs = std::make_unique<FsJournalFile>(path);
    timed = std::make_unique<TimingJournal>(*fs, tracer);
    const std::int64_t t0 = now_ns();
    auto opened = DurableBroker::open(topo.spec, BrokerOptions{}, *timed);
    recovery_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (!opened.is_ok()) {
      std::fprintf(stderr, "wire-replay: open: %s\n",
                   opened.status().to_string().c_str());
      return 2;
    }
    durable = std::move(opened).value();
  } else {
    bb = std::make_unique<BandwidthBroker>(topo.spec, BrokerOptions{});
    front = std::make_unique<ConcurrentBrokerFront>(*bb, 1);
  }
  for (int k = 0; k < topo.pairs; ++k) {
    const std::string in = "I" + std::to_string(k);
    const std::string eg = "E" + std::to_string(k);
    Result<PathId> p = journal
        ? durable->provision_path(kNoRequestId, in, eg)
        : front->exclusive([&](BandwidthBroker& b) {
            return b.provision_path(in, eg);
          });
    if (!p.is_ok()) {
      std::fprintf(stderr, "wire-replay: provision failed\n");
      return 2;
    }
  }
  BandwidthBroker& broker = journal ? durable->broker() : *bb;

  // Flows granted live -> flows granted in the replay. Flows recovered
  // from the journal keep their ids.
  std::unordered_map<FlowId, FlowId> flow_map;
  for (const auto& [flow, rate] : read_ledger(a.str("ledger-in"))) {
    flow_map[flow] = flow;
  }

  struct Pending {
    FlowServiceRequest request;
    RequestId rid = kNoRequestId;
    FlowId live_flow = kInvalidFlowId;
  };
  long frames = 0, admits = 0, releases = 0, skipped = 0, ops = 0;
  long probe_admits = 0;
  Rng probe_gen(static_cast<std::uint64_t>(a.num("seed", 1)));
  AdmissionScratch scratch;
  PathSnapshot snap;
  auto engine_probe = [&] {
    // §3.1 test timed on a snapshot of a sampled path.
    const int pair = static_cast<int>(probe_gen.pick(
        static_cast<std::size_t>(topo.pairs)));
    const std::string in = "I" + std::to_string(pair);
    const std::string eg = "E" + std::to_string(pair);
    const auto& ids = broker.paths().find_all_ref(in, eg);
    if (ids.empty()) return;
    const PathRecord& record = broker.paths().record(ids.front());
    const auto& links = broker.paths().link_states(ids.front(), broker.nodes());
    snap.clear();
    broker.store().snapshot_path(record, links, &snap);
    for (int i = 0; i < 64; ++i) {
      const TrafficProfile prof = paper_traffic_type(static_cast<int>(
          probe_gen.pick(kPaperTrafficTypes)));
      const double d = kDelayLo + (kDelayHi - kDelayLo) * probe_gen.u();
      Tracer::Scope s(tracer, "engine.test_rate", 0);
      probe_admits += AdmissionEngine::test(snap, prof, d, &scratch).admitted;
    }
    snap.clear();
  };

  std::vector<Pending> batch;
  WireBuffer reply_sink;
  auto reply = [&](const WireBuffer& msg, std::uint64_t rid) {
    Tracer::Scope s(tracer, "net.reply", rid);
    const WireBuffer framed = frame_net_message(msg);
    reply_sink.insert(reply_sink.end(), framed.begin(), framed.end());
  };
  auto flush_admits = [&] {
    if (batch.empty()) return;
    std::vector<FlowServiceRequest> requests;
    std::vector<RequestId> rids;
    requests.reserve(batch.size());
    for (const Pending& p : batch) {
      requests.push_back(p.request);
      rids.push_back(p.rid);
    }
    std::vector<Result<Reservation>> results;
    if (journal) {
      Tracer::Scope s(tracer, "journal.batch", batch.front().rid);
      results = durable->request_service_batch(rids, requests, 0.0);
    } else {
      std::vector<FrontOutcome> outs;
      {
        Tracer::Scope s(tracer, "front.submit_batch", batch.front().rid);
        outs = front->submit_batch(requests);
      }
      for (FrontOutcome& o : outs) results.push_back(std::move(o.result));
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      admits++;
      if (results[i].is_ok()) {
        if (batch[i].live_flow != kInvalidFlowId) {
          flow_map[batch[i].live_flow] = results[i].value().flow;
        }
        reply(encode(results[i].value()), batch[i].rid);
      } else {
        reply(encode(RejectReply{RejectReason::kNone,
                                 results[i].status().message()}),
              batch[i].rid);
      }
    }
    batch.clear();
  };

  // Connections in turn, kReplayFramesPerRead frames per read.
  bool more = true;
  while (more) {
    more = false;
    for (ReplayConn& c : conns) {
      if (c.next_op >= c.kind.size()) continue;
      more = true;
      const std::size_t end =
          std::min(c.kind.size(), c.next_op + kReplayFramesPerRead);
      std::size_t nbytes = 0;
      for (std::size_t i = c.next_op; i < end; ++i) nbytes += c.bytes[i];
      {
        Tracer::Scope s(tracer, "net.feed", 0);
        c.decoder.feed(c.data.data() + c.next_byte, nbytes);
      }
      c.next_byte += nbytes;
      for (std::size_t i = c.next_op; i < end; ++i) {
        ++frames;
        ++ops;
        Pending p;
        bool teardown = false;
        TeardownRequest td;
        {
          Tracer::Scope s(tracer, "net.decode", 0);
          auto frame = c.decoder.next();
          if (!frame.is_ok()) {
            errors.push_back("replay decode: " + frame.status().to_string());
            return 2;
          }
          auto type = peek_type(frame.value());
          if (type.is_ok() &&
              type.value() == MessageType::kFlowServiceRequest) {
            auto req = decode_flow_service_request(frame.value(), &p.rid);
            if (req.is_ok()) p.request = std::move(req).value();
          } else {
            auto t = decode_teardown_request(frame.value());
            if (t.is_ok()) td = t.value();
            teardown = true;
          }
        }
        if (!teardown) {
          p.live_flow = c.flow[i];
          batch.push_back(std::move(p));
          if (batch.size() >= kMaxAdmitBatch) flush_admits();
        } else {
          flush_admits();
          auto it = flow_map.find(td.flow);
          if (it == flow_map.end()) {
            ++skipped;  // the replay's interleaving never granted it
            continue;
          }
          Status st = Status::ok();
          if (journal) {
            Tracer::Scope s(tracer, "journal.release", td.rid);
            st = durable->release_service(td.rid, it->second);
          } else {
            Tracer::Scope s(tracer, "front.release", td.rid);
            st = front->release_service(it->second);
          }
          flow_map.erase(it);
          ++releases;
          reply(encode(RejectReply{st.is_ok() ? RejectReason::kNone
                                              : RejectReason::kPolicy,
                                   st.is_ok() ? "torn-down" : st.message()}),
                td.rid);
        }
        if (frames % static_cast<long>(kEngineProbeEvery) == 0) {
          flush_admits();
          engine_probe();
        }
        if (reply_sink.size() > (1u << 20)) reply_sink.clear();
      }
      flush_admits();
      c.next_op = end;
    }
  }

  const Tracer::Total feed = tracer.total("net.feed");
  const Tracer::Total decode = tracer.total("net.decode");
  const Tracer::Total reply_t = tracer.total("net.reply");
  const Tracer::Total batch_t =
      tracer.total(journal ? "journal.batch" : "front.submit_batch");
  const Tracer::Total release =
      tracer.total(journal ? "journal.release" : "front.release");
  const Tracer::Total append = tracer.total("journal.append");
  const double n_ops = static_cast<double>(ops);
  out.integer("frames", frames);
  out.integer("ops", ops);
  out.integer("admits", admits);
  out.integer("releases", releases);
  out.integer("skipped_teardowns", skipped);
  out.integer("probe_admits", probe_admits);
  out.num("decode_ns_per_frame",
          per(feed.ns + decode.ns, static_cast<double>(frames)));
  out.num("reply_ns_per_op", reply_t.mean_ns());
  out.num("batch_ns_per_op", per(batch_t.ns, static_cast<double>(admits)));
  out.num("release_ns", release.mean_ns());
  out.num("layer_ns_per_op",
          per(feed.ns + decode.ns + reply_t.ns + batch_t.ns + release.ns,
              n_ops));
  out.num("engine_test_ns_rate", tracer.total("engine.test_rate").mean_ns());
  if (front) {
    out.num("occ_conflicts_per_kop",
            per(1000.0 * static_cast<double>(front->occ_conflicts()), n_ops));
  }
  if (journal) {
    out.num("recovery_s", recovery_s);
    out.num("append_us", append.mean_ns() / 1e3);
    out.num("appends_per_op", per(append.n, n_ops));
  }
  if (!a.str("trace-out").empty()) tracer.write_csv(a.str("trace-out"));
  out.boolean("correct", errors.empty());
  out.errors(errors);
  out.print();
  return 0;
}

}  // namespace perfbench
