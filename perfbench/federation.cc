// federation: the benchmark's own coordinator — a FederatedFront over
// SocketMembers in front of K qosbbd --topo=multidomain members — called
// from a few threads with a seeded mix of intra- and inter-domain
// admissions and releases.
//
//   perfbench_driver federation --port-files=A,B,C --seed=N --seconds=S
//                               --threads=T [--trace=1]
//
// It says it is up before the members are launched and then reads their
// pids on stdin (announce_up, read_pids).

#include <sstream>
#include <thread>

#include "checks.h"
#include "common.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "federation/partition.h"
#include "flowsim/workload.h"
#include "topo/builders.h"

namespace perfbench {

using namespace qosbb;

namespace {

thread_local Tracer* tl_tracer = nullptr;

/// FederationMember decorator of the traced run: a span around every call
/// into a member (the round trip to its daemon).
class TimingMember : public FederationMember {
 public:
  explicit TimingMember(FederationMember& inner) : inner_(inner) {}
  int domain() const override { return inner_.domain(); }
  Result<Reservation> admit(const FlowServiceRequest& r,
                            RequestId rid) override {
    Tracer::Scope s(*tl_tracer, "federation.member", rid);
    return inner_.admit(r, rid);
  }
  Status release(FlowId flow, RequestId rid) override {
    Tracer::Scope s(*tl_tracer, "federation.member", rid);
    return inner_.release(flow, rid);
  }
  Result<PrepareReply> prepare(const PrepareSegment& r) override {
    Tracer::Scope s(*tl_tracer, "federation.member", r.rid_segment);
    return inner_.prepare(r);
  }
  Result<SegmentAck> commit(const CommitSegment& r) override {
    Tracer::Scope s(*tl_tracer, "federation.member", r.rid);
    return inner_.commit(r);
  }
  Result<SegmentAck> abort(const AbortSegment& r) override {
    Tracer::Scope s(*tl_tracer, "federation.member", r.rid_segment);
    return inner_.abort(r);
  }
  Result<FederatedDigestReply> digest() override { return inner_.digest(); }
  Result<WireBuffer> snapshot() override { return inner_.snapshot(); }
  Status restore(const WireBuffer& frame) override {
    return inner_.restore(frame);
  }

 private:
  FederationMember& inner_;
};

/// Share of operations that release one of the thread's live flows.
constexpr double kReleaseShare = 0.35;

struct Worker {
  Rng rng;
  int pick(int n) {
    return static_cast<int>(rng.pick(static_cast<std::size_t>(n)));
  }
  std::vector<FlowId> live;
  Window win;
  long attempted = 0, failed = 0;
  long admitted = 0, rejected = 0, released = 0;
  std::vector<std::string> errors;
  long error_count = 0;
  Tracer tracer{false};
  void error(std::string e) {
    ++error_count;
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
};

std::vector<pbcheck::Hop> hops_of(const DomainSpec& spec,
                                  const std::vector<std::string>& nodes) {
  std::vector<pbcheck::Hop> hops;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const LinkSpec& l = spec.link(nodes[i], nodes[i + 1]);
    hops.push_back({l.capacity, l.propagation_delay});
  }
  return hops;
}

}  // namespace

int federation_run(const Args& a) {
  const int domains = static_cast<int>(a.num("domains", 3));
  const int pairs = static_cast<int>(a.num("pairs", 2));
  const int threads = static_cast<int>(a.num("threads", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const double seconds = a.real("seconds", 10.0);
  const double warmup = a.real("warmup", 1.0);
  const bool trace = a.num("trace", 0) != 0;
  JsonOut out;
  std::vector<std::string> errors;

  // The members' topology, exactly as qosbbd --topo=multidomain builds it.
  MultiDomainOptions topo;
  topo.domains = domains;
  topo.edge_pairs = pairs;
  const FederationPlan plan =
      partition_multi_domain(multi_domain_topology(topo), domains);

  std::vector<std::unique_ptr<SocketMember>> sockets;
  std::vector<std::unique_ptr<TimingMember>> timed;
  std::vector<FederationMember*> members;
  announce_up();
  std::stringstream files(a.str("port-files"));
  std::string file;
  for (int d = 0; std::getline(files, file, ','); ++d) {
    RetryingClientOptions opt;
    opt.port = wait_port(file);
    if (opt.port == 0) {
      std::fprintf(stderr, "federation: member %d never came up\n", d);
      return 2;
    }
    opt.rng_seed = seed + static_cast<std::uint64_t>(d);
    sockets.push_back(std::make_unique<SocketMember>(d, opt));
    if (trace) {
      timed.push_back(std::make_unique<TimingMember>(*sockets.back()));
      members.push_back(timed.back().get());
    } else {
      members.push_back(sockets.back().get());
    }
  }
  Tracer main_tracer(false);
  tl_tracer = &main_tracer;
  FederatedFront front(plan, members);
  // Ready: every member has answered a request through the coordinator.
  auto ready = front.digests();
  if (!ready.is_ok()) {
    std::fprintf(stderr, "federation: members unreachable: %s\n",
                 ready.status().to_string().c_str());
    return 2;
  }
  out.integer("t_ready_ns", now_ns());
  const std::vector<long> pids = read_pids();

  const std::int64_t ws =
      now_ns() + static_cast<std::int64_t>(warmup * 1e9);
  const std::int64_t we = ws + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  auto body = [&](Worker& w) {
    tl_tracer = &w.tracer;
    std::uint64_t seq = 0;
    while (now_ns() < we) {
      ++seq;
      const std::int64_t t0 = now_ns();
      if (!w.live.empty() && w.rng.u() < kReleaseShare) {
        const std::size_t i = static_cast<std::size_t>(
            w.pick(static_cast<int>(w.live.size())));
        const FlowId flow = w.live[i];
        w.live[i] = w.live.back();
        w.live.pop_back();
        ++w.attempted;
        Status s = Status::ok();
        {
          Tracer::Scope span(w.tracer, "federation.release", seq);
          s = front.release_service(flow);
        }
        if (!s.is_ok()) {
          ++w.failed;  // a lost acked admission, or a transport failure
          w.error("release of an acked flow: " + s.to_string());
          continue;
        }
        ++w.released;
        w.win.op(now_ns());
        continue;
      }
      const int fd = w.pick(domains);
      const int td = fd + w.pick(domains - fd);
      const int fp = w.pick(pairs), tp = w.pick(pairs);
      const int type = w.pick(kPaperTrafficTypes);
      FlowServiceRequest req;
      req.profile = paper_traffic_type(type);
      req.e2e_delay_req = 0.5 + 2.5 * w.rng.u();
      req.ingress = "D" + std::to_string(fd) + "I" + std::to_string(fp);
      req.egress = "D" + std::to_string(td) + "E" + std::to_string(tp);
      ++w.attempted;
      FederatedOutcome o;
      {
        Tracer::Scope span(w.tracer,
                           fd == td ? "federation.intra" : "federation.inter",
                           seq);
        o = front.request_service(req);
      }
      const std::int64_t t1 = now_ns();
      if (!o.result.is_ok() &&
          o.result.status().code() != StatusCode::kRejected) {
        ++w.failed;
        w.error("admission: " + o.result.status().to_string());
        continue;
      }
      w.win.admission(t0, t1);
      if (!o.result.is_ok()) {
        ++w.rejected;
        continue;
      }
      ++w.admitted;
      const Reservation& r = o.result.value();
      w.live.push_back(r.flow);
      const pbcheck::Profile prof{req.profile.sigma, req.profile.rho,
                                  req.profile.peak, req.profile.l_max};
      std::string e;
      if (fd == td) {
        // Intra-domain: the member's flat §3.1 minimum on its own path.
        const DomainSpec& member = plan.members[static_cast<std::size_t>(fd)];
        e = pbcheck::check_grant(
            hops_of(member, multi_domain_path(fd, fp, td, tp)), member.l_max,
            prof, req.e2e_delay_req, r.params.rate, r.e2e_bound);
      } else {
        const auto global = hops_of(plan.global,
                                    multi_domain_path(fd, fp, td, tp));
        e = pbcheck::check_segment_rate(global, plan.global.l_max,
                                        td - fd + 1, prof,
                                        req.e2e_delay_req, o.segment_rate);
        if (e.empty() && !pbcheck::close_rate(r.params.rate, o.segment_rate)) {
          e = "inter-domain reservation rate differs from its segment rate";
        }
        if (e.empty() && o.segments != td - fd + 1) {
          e = "inter-domain path split into " + std::to_string(o.segments) +
              " segments";
        }
        if (e.empty() &&
            r.e2e_bound > req.e2e_delay_req * (1.0 + pbcheck::kRelTol)) {
          e = "inter-domain bound above D_req";
        }
      }
      if (!e.empty()) w.error(e);
    }
  };

  std::vector<double> cpu0(pids.size()), cpu1(pids.size());
  double self0 = 0.0, self1 = 0.0;
  std::vector<std::thread> ts;
  for (int i = 0; i < threads; ++i) {
    Worker& w = workers[static_cast<std::size_t>(i)];
    w.rng = Rng(seed * 1000003ULL + static_cast<std::uint64_t>(i));
    w.tracer = Tracer(trace, static_cast<std::uint32_t>(i) << 26);
    w.win.start(ws, we);
    ts.emplace_back([&body, &w] { body(w); });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(ws - now_ns()));
  for (std::size_t i = 0; i < pids.size(); ++i) cpu0[i] = proc_cpu_s(pids[i]);
  self0 = self_cpu_s();
  std::this_thread::sleep_for(std::chrono::nanoseconds(we - now_ns()));
  for (std::size_t i = 0; i < pids.size(); ++i) cpu1[i] = proc_cpu_s(pids[i]);
  self1 = self_cpu_s();
  for (auto& t : ts) t.join();

  long attempted = 0, failed = 0, admitted = 0, rejected = 0;
  long released = 0;
  Window win;
  win.start(ws, we);
  Tracer all(trace);
  for (Worker& w : workers) {
    attempted += w.attempted;
    failed += w.failed;
    admitted += w.admitted;
    rejected += w.rejected;
    released += w.released;
    win.merge(w.win);
    for (const std::string& e : w.errors) errors.push_back(e);
    if (w.error_count > static_cast<long>(w.errors.size())) {
      errors.push_back(std::to_string(w.error_count) + " violations in all");
    }
    all.append(w.tracer);
  }

  // Every acked admission must release cleanly; then every member is empty.
  long drained = 0;
  for (Worker& w : workers) {
    for (FlowId flow : w.live) {
      ++attempted;
      if (Status s = front.release_service(flow); !s.is_ok()) {
        ++failed;
        errors.push_back("release at the end: " + s.to_string());
      } else {
        ++drained;
      }
    }
  }
  auto digests = front.digests();
  if (!digests.is_ok()) {
    errors.push_back("digest probe: " + digests.status().to_string());
  } else {
    for (std::size_t d = 0; d < digests.value().size(); ++d) {
      if (std::string e =
              pbcheck::check_live_count(0, digests.value()[d].live_flows);
          !e.empty()) {
        errors.push_back("member " + std::to_string(d) +
                         " after releasing everything: " + e);
      }
    }
  }
  const FederationStats st = front.stats();
  if (st.poisoned_txns != 0 || st.ack_failures != 0) {
    failed += static_cast<long>(st.poisoned_txns + st.ack_failures);
    errors.push_back("poisoned transactions or failed acks");
  }
  std::uint64_t resends = 0;
  for (const auto& s : sockets) {
    resends += s->transport_stats().resends + s->transport_stats().sheds_seen;
  }
  failed += static_cast<long>(resends);  // lost replies and sheds

  double daemon_cpu = 0.0;
  for (std::size_t i = 0; i < pids.size(); ++i) daemon_cpu += cpu1[i] - cpu0[i];
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.integer("admitted", admitted);
  out.integer("rejected", rejected);
  out.integer("released", released + drained);
  put_window(out, win);
  out.num("cpu_us_per_op", per((daemon_cpu + self1 - self0) * 1e6,
                               static_cast<double>(win.total_ops())));
  out.num("self_rss_mb", vm_hwm_mb(0));
  if (trace) {
    const Tracer::Total intra = all.total("federation.intra");
    const Tracer::Total inter = all.total("federation.inter");
    const Tracer::Total rel = all.total("federation.release");
    const Tracer::Total member = all.total("federation.member");
    const double ops = intra.n + inter.n + rel.n;
    out.num("federation.intra_us", intra.mean_ns() / 1e3);
    out.num("federation.inter_us", inter.mean_ns() / 1e3);
    out.num("federation.member_rtt_us", member.mean_ns() / 1e3);
    out.num("federation.member_calls_per_op", per(member.n, ops));
    out.num("federation.coordinator_self_us",
            per(intra.ns + inter.ns + rel.ns - member.ns, ops) / 1e3);
    out.num("federation.prepare_failure_ratio",
            per(static_cast<double>(st.prepare_failures),
                static_cast<double>(st.prepares)));
    out.num("federation.prepares", static_cast<double>(st.prepares));
    out.num("federation.rejected_local_ratio",
            per(static_cast<double>(st.inter_rejected_local),
                static_cast<double>(st.inter_requests)));
    out.num("federation.inter_requests",
            static_cast<double>(st.inter_requests));
    if (!a.str("trace-out").empty()) all.write_csv(a.str("trace-out"));
  }
  out.boolean("correct", errors.empty());
  out.errors(errors);
  out.print();
  return 0;
}

}  // namespace perfbench
