// engine_delay: the §3.2 (Figure-4) and §4 engine behind the concurrent
// front, in process. A BandwidthBroker over a multi-domain topology whose
// middle domain runs VT-EDF on its core link, so most paths mix C̸SVC and
// VT-EDF hops; threads call submit_batch and release_service, with a share
// of class joins and leaves through exclusive().
//
//   perfbench_driver engine --seed=N --seconds=S --threads=T [--trace=1]

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "checks.h"
#include "common.h"
#include "core/admission_engine.h"
#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/oracle.h"
#include "flowsim/workload.h"
#include "topo/builders.h"
#include "topo/fig8.h"

namespace perfbench {

using namespace qosbb;

namespace {

/// Core and boundary links: room for several thousand Table-1 flows.
constexpr double kCoreCapacity = 400e6;
constexpr double kAccessCapacity = 10e9;
constexpr int kDomains = 3;
constexpr int kEdgePairs = 4;
constexpr int kDelayDomain = 1;  ///< its core link runs VT-EDF
constexpr const char* kEdfLink = "D1L->D1R";

/// Operation mix: a share of class joins/leaves; otherwise each thread
/// holds about kTargetLive flows — it releases one of them when at the
/// target (or, kReleaseShare of the time, below it) and otherwise submits
/// a batch of 1..kMaxBatch admits. The VT-EDF link then carries a steady
/// few thousand distinct delays below its capacity.
constexpr double kClassShare = 0.01;
constexpr double kReleaseShare = 0.1;
constexpr std::size_t kTargetLive = 700;
constexpr int kMaxBatch = 8;
constexpr double kDelayLo = 0.5, kDelayHi = 3.0;

struct PairInfo {
  std::string ingress, egress;
  bool mixed = false;  ///< crosses the VT-EDF core link
  std::vector<pbcheck::Hop> hops;
  std::vector<std::string> links;  ///< "from->to", hop order
};

struct LiveFlow {
  FlowId flow = kInvalidFlowId;
  std::size_t pair = 0;
  double rate = 0.0;
};

struct Worker {
  Rng rng;
  std::vector<LiveFlow> live;
  std::vector<FlowId> micro;  ///< class microflows joined by this thread
  Window win;
  long attempted = 0, failed = 0;
  long admitted = 0, rejected = 0, releases = 0, joins = 0, leaves = 0;
  std::vector<std::string> errors;
  long error_count = 0;
  Tracer tracer{false};
  void error(std::string e) {
    ++error_count;
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
};

}  // namespace

int engine_run(const Args& a) {
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const double seconds = a.real("seconds", 10.0);
  const double warmup = a.real("warmup", 1.0);
  const int threads = static_cast<int>(a.num("threads", 4));
  const bool trace = a.num("trace", 0) != 0;
  JsonOut out;
  std::vector<std::string> errors;

  // ---- Set-up: domain, paths, classes, first answered request ----
  MultiDomainOptions topo;
  topo.domains = kDomains;
  topo.edge_pairs = kEdgePairs;
  topo.access_capacity = kAccessCapacity;
  topo.core_capacity = kCoreCapacity;
  topo.boundary_capacity = kCoreCapacity;
  topo.delay_based_domain = kDelayDomain;
  const DomainSpec spec = multi_domain_topology(topo);
  BrokerOptions options;
  options.contingency = ContingencyMethod::kBounding;
  BandwidthBroker bb(spec, options);
  ConcurrentBrokerFront front(bb, 1);

  std::vector<PairInfo> pairs;
  std::vector<std::size_t> mixed_pairs, rate_pairs;
  for (int fd = 0; fd < kDomains; ++fd) {
    for (int td = fd; td < kDomains; ++td) {
      const bool mixed = fd <= kDelayDomain && td >= kDelayDomain;
      if (!mixed && fd != td) continue;
      for (int fp = 0; fp < kEdgePairs; ++fp) {
        for (int tp = 0; tp < kEdgePairs; ++tp) {
          PairInfo p;
          const auto nodes = multi_domain_path(fd, fp, td, tp);
          p.ingress = nodes.front();
          p.egress = nodes.back();
          p.mixed = mixed;
          for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
            const LinkSpec& l = spec.link(nodes[i], nodes[i + 1]);
            p.hops.push_back({l.capacity, l.propagation_delay});
            p.links.push_back(l.from + "->" + l.to);
          }
          (mixed ? mixed_pairs : rate_pairs).push_back(pairs.size());
          pairs.push_back(std::move(p));
        }
      }
    }
  }
  for (const PairInfo& p : pairs) {
    auto id = front.exclusive([&](BandwidthBroker& b) {
      return b.provision_path(p.ingress, p.egress);
    });
    if (!id.is_ok()) {
      std::fprintf(stderr, "engine: provision %s->%s failed\n",
                   p.ingress.c_str(), p.egress.c_str());
      return 2;
    }
  }
  double class_now = 0.0;  // broker time of class ops (under exclusive)
  const ClassId classes[2] = {
      front.exclusive(
          [](BandwidthBroker& b) { return b.define_class(2.44, 0.24); }),
      front.exclusive(
          [](BandwidthBroker& b) { return b.define_class(3.0, 0.5); }),
  };
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    Worker& w = workers[static_cast<std::size_t>(i)];
    w.rng = Rng(seed * 1000003ULL + static_cast<std::uint64_t>(i));
    w.tracer = Tracer(trace, static_cast<std::uint32_t>(i) << 26);
  }
  auto make_request = [&](Rng& g, std::size_t* pair_out) {
    const bool mixed = g.u() < 0.8;
    const auto& pool = mixed ? mixed_pairs : rate_pairs;
    const std::size_t pi = pool[g.pick(pool.size())];
    *pair_out = pi;
    FlowServiceRequest req;
    req.profile =
        paper_traffic_type(static_cast<int>(g.pick(kPaperTrafficTypes)));
    req.e2e_delay_req = kDelayLo + (kDelayHi - kDelayLo) * g.u();
    req.ingress = pairs[pi].ingress;
    req.egress = pairs[pi].egress;
    return req;
  };
  // Checks of one decided request.
  auto check = [&](Worker& w, const FlowServiceRequest& req,
                   const PairInfo& p, const FrontOutcome& o) {
    const pbcheck::Profile prof{req.profile.sigma, req.profile.rho,
                                req.profile.peak, req.profile.l_max};
    if (o.result.is_ok()) {
      const Reservation& r = o.result.value();
      std::string e;
      if (!p.mixed) {
        e = pbcheck::check_grant(p.hops, spec.l_max, prof, req.e2e_delay_req,
                                 r.params.rate, r.e2e_bound);
      } else if (r.e2e_bound > req.e2e_delay_req * (1.0 + pbcheck::kRelTol)) {
        e = "§3.2 bound above D_req";
      } else if (r.params.rate < prof.rho * (1.0 - pbcheck::kRelTol) ||
                 r.params.rate > prof.peak * (1.0 + pbcheck::kRelTol)) {
        e = "§3.2 rate outside [rho, P]";
      }
      if (!e.empty()) w.error(e);
      return;
    }
    const RejectReason reason = o.outcome.reason;
    if (reason == RejectReason::kNoFeasibleRate && !p.mixed) {
      if (std::string e = pbcheck::check_no_feasible(p.hops, spec.l_max, prof,
                                                     req.e2e_delay_req);
          !e.empty()) {
        w.error(e);
      }
    } else if (reason != RejectReason::kNoFeasibleRate &&
               reason != RejectReason::kInsufficientBandwidth &&
               reason != RejectReason::kEdfUnschedulable) {
      w.error(std::string("unexpected reject reason ") +
              reject_reason_name(reason));
    }
  };
  {
    Worker& w = workers[0];
    std::size_t pi = 0;
    const FlowServiceRequest req = make_request(w.rng, &pi);
    const std::vector<FrontOutcome> o = front.submit_batch(
        std::span<const FlowServiceRequest>(&req, 1));
    out.integer("t_ready_ns", now_ns());
    ++w.attempted;
    check(w, req, pairs[pi], o[0]);
    if (o[0].result.is_ok()) {
      w.live.push_back({o[0].result.value().flow, pi,
                        o[0].result.value().params.rate});
    }
  }

  // ---- The paper's Table 2, before the timed part ----
  {
    int got[5][4];
    const Fig8Setting set[4] = {Fig8Setting::kRateBasedOnly,
                                Fig8Setting::kRateBasedOnly,
                                Fig8Setting::kMixed, Fig8Setting::kMixed};
    const double bound[4] = {2.44, 2.19, 2.44, 2.19};
    const double cd[3] = {0.10, 0.24, 0.50};
    for (int c = 0; c < 4; ++c) {
      got[0][c] = bench::fill_intserv_gs(set[c], bound[c]);
      got[1][c] = bench::fill_perflow_bb(set[c], bound[c]);
      for (int k = 0; k < 3; ++k) {
        got[2 + k][c] = bench::fill_aggregate_bb(set[c], bound[c], cd[k]);
      }
    }
    if (std::string e = pbcheck::check_table2(got); !e.empty()) {
      errors.push_back(e);
    }
  }

  // ---- Workers, paused at quiescent checkpoints ----
  std::mutex mu;
  std::condition_variable cv;
  bool pause = false;
  int paused = 0;
  std::atomic<bool> pause_flag{false}, stop{false};
  // The measured window starts after the warm-up checkpoint. Completions
  // after the mid-run checkpoint are shifted back by its pause, so the
  // window's slices count working time only.
  std::atomic<bool> measuring{false};
  std::atomic<std::int64_t> shift{0};

  auto body = [&](Worker& w) {
    std::uint64_t seq = 0;
    std::vector<FlowServiceRequest> batch;
    std::vector<std::size_t> batch_pairs;
    while (!stop.load(std::memory_order_relaxed)) {
      if (pause_flag.load(std::memory_order_relaxed)) {
        std::unique_lock<std::mutex> l(mu);
        ++paused;
        cv.notify_all();
        cv.wait(l, [&] { return !pause; });
        --paused;
        continue;
      }
      ++seq;
      const double r = w.rng.u();
      const std::int64_t t0 = now_ns();
      if (r < kClassShare) {
        // §4 class join or leave, with the domain quiesced.
        const bool join = w.micro.empty() || w.rng.u() < 0.5;
        ++w.attempted;
        if (join) {
          const ClassId cls = classes[w.rng.pick(2)];
          const PairInfo& p =
              pairs[mixed_pairs[w.rng.pick(mixed_pairs.size())]];
          const TrafficProfile prof =
              paper_traffic_type(static_cast<int>(w.rng.pick(
                  kPaperTrafficTypes)));
          JoinResult j;
          {
            Tracer::Scope s(w.tracer, "engine.class_join", seq);
            j = front.exclusive([&](BandwidthBroker& b) {
              JoinResult jr = b.request_class_service(cls, prof, p.ingress,
                                                      p.egress, class_now);
              if (jr.admitted && jr.grant != kInvalidGrantId) {
                b.expire_contingency(jr.grant, jr.contingency_expires_at);
                class_now = std::max(class_now, jr.contingency_expires_at);
              }
              class_now += 1.0;
              return jr;
            });
          }
          if (j.admitted) {
            ++w.joins;
            w.micro.push_back(j.microflow);
          }
        } else {
          const std::size_t i = w.rng.pick(w.micro.size());
          const FlowId micro = w.micro[i];
          w.micro[i] = w.micro.back();
          w.micro.pop_back();
          Result<LeaveResult> l = Status::internal("unset");
          {
            Tracer::Scope s(w.tracer, "engine.class_leave", seq);
            l = front.exclusive([&](BandwidthBroker& b) {
              Result<LeaveResult> lr = b.leave_class_service(micro, class_now);
              if (lr.is_ok() && lr.value().grant != kInvalidGrantId) {
                b.expire_contingency(lr.value().grant,
                                     lr.value().contingency_expires_at);
                class_now =
                    std::max(class_now, lr.value().contingency_expires_at);
              }
              class_now += 1.0;
              return lr;
            });
          }
          if (!l.is_ok()) {
            ++w.failed;
            w.error("class leave: " + l.status().to_string());
            continue;
          }
          ++w.leaves;
        }
        if (measuring) w.win.admission(t0 - shift, now_ns() - shift);
        continue;
      }
      if (w.live.size() >= kTargetLive ||
          (!w.live.empty() && r < kClassShare + kReleaseShare)) {
        const std::size_t i = w.rng.pick(w.live.size());
        const FlowId flow = w.live[i].flow;
        w.live[i] = w.live.back();
        w.live.pop_back();
        ++w.attempted;
        Status s = Status::ok();
        {
          Tracer::Scope span(w.tracer, "front.release", seq);
          s = front.release_service(flow);
        }
        if (!s.is_ok()) {
          ++w.failed;
          w.error("release: " + s.to_string());
          continue;
        }
        ++w.releases;
        if (measuring) w.win.op(now_ns() - shift);
        continue;
      }
      const std::size_t k = 1 + w.rng.pick(kMaxBatch);
      batch.clear();
      batch_pairs.clear();
      for (std::size_t i = 0; i < k; ++i) {
        std::size_t pi = 0;
        batch.push_back(make_request(w.rng, &pi));
        batch_pairs.push_back(pi);
      }
      std::vector<FrontOutcome> outs;
      {
        Tracer::Scope span(w.tracer, "front.submit_batch", seq);
        outs = front.submit_batch(batch);
      }
      const std::int64_t t1 = now_ns();
      for (std::size_t i = 0; i < k; ++i) {
        ++w.attempted;
        check(w, batch[i], pairs[batch_pairs[i]], outs[i]);
        if (outs[i].result.is_ok()) {
          ++w.admitted;
          w.live.push_back({outs[i].result.value().flow, batch_pairs[i],
                            outs[i].result.value().params.rate});
        } else {
          ++w.rejected;
        }
        if (measuring) w.win.admission(t0 - shift, t1 - shift);
      }
    }
  };

  // Quiescent checkpoint: capacity, the ledger, and the oracle referee.
  long checkpoints = 0;
  double knots_sum = 0.0;
  Tracer probe_tracer(trace, 31u << 26);
  Rng probe(seed * 31 + 7);
  long probe_admits = 0;
  AdmissionScratch scratch;
  PathSnapshot snap;
  auto checkpoint = [&](const char* where) {
    ++checkpoints;
    for (const LinkSpec& l : spec.links) {
      const LinkQosState& link = bb.nodes().link(l.from + "->" + l.to);
      if (std::string e = pbcheck::check_capacity(link.reserved(), l.capacity);
          !e.empty()) {
        errors.push_back(std::string(where) + ": link " + l.from + "->" +
                         l.to + ": " + e);
      }
    }
    std::map<std::string, double> ledger;
    for (const Worker& w : workers) {
      for (const LiveFlow& f : w.live) {
        for (const std::string& l : pairs[f.pair].links) ledger[l] += f.rate;
      }
    }
    for (const auto& [name, rate] : ledger) {
      const std::size_t arrow = name.find("->");
      const double cap =
          spec.link(name.substr(0, arrow), name.substr(arrow + 2)).capacity;
      if (std::string e = pbcheck::check_capacity(rate, cap); !e.empty()) {
        errors.push_back(std::string(where) + ": ledger on " + name + ": " + e);
      }
    }
    const OracleStateReport rep = oracle_check_state(bb);
    if (!rep.ok) {
      errors.push_back(std::string(where) + ": oracle: " + rep.to_string());
    }
    knots_sum += static_cast<double>(
        bb.nodes().link(kEdfLink).knot_prefixes().size());
    if (!trace) return;
    // Engine test times on snapshots of sampled paths.
    for (int n = 0; n < 32; ++n) {
      const bool mixed = n % 2 == 0;
      const auto& pool = mixed ? mixed_pairs : rate_pairs;
      const PairInfo& p = pairs[pool[probe.pick(pool.size())]];
      const PathId id = bb.paths().find_all_ref(p.ingress, p.egress).front();
      snap.clear();
      bb.store().snapshot_path(bb.paths().record(id),
                               bb.paths().link_states(id, bb.nodes()), &snap);
      for (int i = 0; i < 32; ++i) {
        std::size_t unused = 0;
        const FlowServiceRequest req = make_request(probe, &unused);
        Tracer::Scope s(probe_tracer,
                        mixed ? "engine.test_delay" : "engine.test_rate", 0);
        probe_admits += AdmissionEngine::test(snap, req.profile,
                                              req.e2e_delay_req, &scratch)
                            .admitted;
      }
      snap.clear();
    }
  };
  auto quiesce = [&] {
    std::unique_lock<std::mutex> l(mu);
    pause = true;
    pause_flag = true;
    cv.wait(l, [&] { return paused == threads; });
  };
  auto resume = [&] {
    {
      std::lock_guard<std::mutex> l(mu);
      pause = false;
      pause_flag = false;
    }
    cv.notify_all();
  };

  std::vector<std::thread> ts;
  for (Worker& w : workers) ts.emplace_back([&body, &w] { body(w); });
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  quiesce();
  checkpoint("after warm-up");
  const std::uint64_t occ0 = front.occ_conflicts();
  const double cpu0 = self_cpu_s();
  const std::int64_t ws = now_ns();
  const std::int64_t we = ws + static_cast<std::int64_t>(seconds * 1e9);
  for (Worker& w : workers) w.win.start(ws, we);
  measuring = true;
  resume();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  quiesce();
  const std::int64_t p0 = now_ns();
  const double pcpu0 = self_cpu_s();
  checkpoint("mid-run");
  const double pause_cpu = self_cpu_s() - pcpu0;
  shift = now_ns() - p0;
  resume();
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(we + shift.load() - now_ns()));
  stop = true;
  const double cpu1 = self_cpu_s();
  const std::uint64_t occ1 = front.occ_conflicts();
  for (auto& t : ts) t.join();
  checkpoint("at the end");

  long attempted = 0, failed = 0, admitted = 0;
  long rejected = 0, joins = 0, leaves = 0, releases = 0;
  Window win;
  win.start(ws, we);
  Tracer all(trace);
  for (Worker& w : workers) {
    attempted += w.attempted;
    failed += w.failed;
    win.merge(w.win);
    admitted += w.admitted;
    rejected += w.rejected;
    joins += w.joins;
    leaves += w.leaves;
    releases += w.releases;
    for (const std::string& e : w.errors) errors.push_back(e);
    if (w.error_count > static_cast<long>(w.errors.size())) {
      errors.push_back(std::to_string(w.error_count) + " violations in all");
    }
    all.append(w.tracer);
  }
  all.append(probe_tracer);
  // Releasing every flow to check the links drain to zero is left out:
  // the broker's float bookkeeping can abort on the last release of a link
  // after a long session (see the FOUND line for node_mib.cc in CHANGES.md).

  const long ops_window = win.total_ops();
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.integer("admitted", admitted);
  out.integer("rejected", rejected);
  out.integer("releases", releases);
  out.integer("class_joins", joins);
  out.integer("class_leaves", leaves);
  out.integer("probe_admits", probe_admits);
  put_window(out, win);
  out.num("cpu_us_per_op", per((cpu1 - cpu0 - pause_cpu) * 1e6,
                               static_cast<double>(ops_window)));
  out.num("self_rss_mb", vm_hwm_mb(0));
  if (trace) {
    out.num("front.submit_batch_ns_per_op",
            per(all.total("front.submit_batch").ns,
                static_cast<double>(admitted + rejected)));
    out.num("front.release_ns", all.total("front.release").mean_ns());
    out.num("front.occ_conflicts_per_kop",
            per(1000.0 * static_cast<double>(occ1 - occ0),
                static_cast<double>(ops_window)));
    out.num("engine.test_ns_rate", all.total("engine.test_rate").mean_ns());
    out.num("engine.test_ns_delay", all.total("engine.test_delay").mean_ns());
    out.num("engine.distinct_delays",
            per(knots_sum, static_cast<double>(checkpoints)));
    out.num("engine.class_join_us",
            all.total("engine.class_join").mean_ns() / 1e3);
    out.num("engine.class_leave_us",
            all.total("engine.class_leave").mean_ns() / 1e3);
    if (!a.str("trace-out").empty()) all.write_csv(a.str("trace-out"));
  }
  out.boolean("correct", errors.empty());
  out.errors(errors);
  out.print();
  return 0;
}

}  // namespace perfbench
