// Output checks of the benchmark, computed apart from the program.
//
// Nothing here includes a broker header: the §3.1 minimum rate, the
// federated segment rate r*, the bound on what a server could have held,
// and the paper's Table 2 are written out again from the paper, so a fault
// in the library cannot hide itself by also being in its own referee.
// Every check returns an empty string when it holds and a description of
// the violation otherwise. selftest.cc feeds each one a wrong result.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace pbcheck {

/// One hop of a path as the topology spec gives it.
struct Hop {
  double capacity = 0.0;  ///< b/s
  double prop = 0.0;      ///< propagation delay, s
};

/// Dual token bucket (σ, ρ, P, L) of a flow.
struct Profile {
  double sigma = 0.0, rho = 0.0, peak = 0.0, l_max = 0.0;
};

/// Relative slack of rate comparisons: the program sums doubles in its own
/// order, so equality holds to rounding, not bit for bit.
constexpr double kRelTol = 1e-9;

inline std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

/// T_on = (σ − L)/(P − ρ): the longest time the source can send at peak.
inline double t_on(const Profile& p) {
  return p.peak == p.rho ? 0.0 : (p.sigma - p.l_max) / (p.peak - p.rho);
}

/// D_tot = Σ (L_dom/C_i + π_i): error terms and propagation along the path.
inline double d_tot(const std::vector<Hop>& hops, double l_domain) {
  double d = 0.0;
  for (const Hop& h : hops) d += l_domain / h.capacity + h.prop;
  return d;
}

/// [T_on·P + (h + extra)·L] / [D_req − D_tot + T_on]; +inf when the
/// denominator is not positive. extra = 1 is the flat §3.1 r_min; extra =
/// K (segments) is the federated r* numerator.
inline double rate_for(const std::vector<Hop>& hops, double l_domain,
                       const Profile& p, double d_req, int extra) {
  const double denom = d_req - d_tot(hops, l_domain) + t_on(p);
  if (denom <= 0.0) return std::numeric_limits<double>::infinity();
  return (t_on(p) * p.peak +
          static_cast<double>(hops.size() + extra) * p.l_max) /
         denom;
}

/// §3.1: r_min = [T_on·P + (h+1)·L] / [D_req − D_tot + T_on].
inline double r_min(const std::vector<Hop>& hops, double l_domain,
                    const Profile& p, double d_req) {
  return rate_for(hops, l_domain, p, d_req, 1);
}

inline bool close_rate(double got, double want) {
  return std::fabs(got - want) <= kRelTol * std::fabs(want) + 1e-6;
}

/// An admitted per-flow request: rate = max(ρ, r_min), rate ≤ P, and the
/// reported bound meets the requirement.
inline std::string check_grant(const std::vector<Hop>& hops, double l_domain,
                               const Profile& p, double d_req, double rate,
                               double bound) {
  const double want = std::max(p.rho, r_min(hops, l_domain, p, d_req));
  if (!close_rate(rate, want)) {
    return fmt("grant %.6f b/s != max(rho, r_min) = %.6f b/s (D_req %.4f s)",
               rate, want, d_req);
  }
  if (rate > p.peak * (1.0 + kRelTol)) {
    return fmt("grant %.6f b/s above peak %.6f b/s", rate, p.peak);
  }
  if (bound > d_req * (1.0 + kRelTol)) {
    return fmt("bound %.9f s above D_req %.9f s", bound, d_req);
  }
  return {};
}

/// A kNoFeasibleRate reject: only when even r = P is too slow.
inline std::string check_no_feasible(const std::vector<Hop>& hops,
                                     double l_domain, const Profile& p,
                                     double d_req) {
  const double r = r_min(hops, l_domain, p, d_req);
  if (r > p.peak * (1.0 - kRelTol)) return {};
  return fmt("kNoFeasibleRate but r_min %.6f <= P %.6f (D_req %.4f s)", r,
             p.peak, d_req);
}

/// Rate changes seen by one connection, in the order its replies arrived:
/// times are integer ticks, ascending, and prefix[i] is the sum of the
/// first i rates. Flows live before the run sit at tick 0.
struct RateSeries {
  std::vector<std::uint32_t> t;
  std::vector<double> prefix{0.0};
  void add(std::uint32_t tick, double rate) {
    t.push_back(tick);
    prefix.push_back(prefix.back() + rate);
  }
  /// Sum of the rates stamped strictly before `tick`.
  double before(std::uint32_t tick) const {
    const std::size_t n =
        std::lower_bound(t.begin(), t.end(), tick) - t.begin();
    return prefix[n];
  }
};

/// The largest total rate the server could have held while deciding a
/// request sent at tick q_send and answered at q_recv: every granted admit
/// sent before the answer came back (`grants`, stamped with the admit's
/// send tick, rounded down), minus every flow whose teardown was
/// acknowledged before the request was sent (`acks`, stamped with the ack
/// tick, rounded up). It holds for every interleaving of the connections.
inline double max_held(const std::vector<RateSeries>& grants,
                       const std::vector<RateSeries>& acks,
                       std::uint32_t q_send, std::uint32_t q_recv) {
  double held = 0.0;
  for (const RateSeries& g : grants) held += g.before(q_recv);
  for (const RateSeries& k : acks) held -= k.before(q_send);
  return held;
}

/// A kInsufficientBandwidth reject: capacity minus the most the server
/// could have held must leave less than max(ρ, r_min).
inline std::string check_insufficient(double capacity, double held,
                                      const std::vector<Hop>& hops,
                                      double l_domain, const Profile& p,
                                      double d_req) {
  const double need = std::max(p.rho, r_min(hops, l_domain, p, d_req));
  const double room = capacity - held;
  if (room < need + kRelTol * capacity + 1e-6) return {};
  return fmt("kInsufficientBandwidth with room %.3f b/s >= need %.3f b/s", room,
             need);
}

/// Health live_flows against the ledger's count (a leaked or duplicated
/// flow shows as a difference).
inline std::string check_live_count(std::uint64_t ledger_live,
                                    std::uint64_t server_live) {
  if (ledger_live == server_live) return {};
  return fmt("server holds %.0f flows, ledger %.0f",
             static_cast<double>(server_live),
             static_cast<double>(ledger_live));
}

/// Health's admit and reject counters of a daemon started for the run
/// against the client's count of grants and rejects it received.
inline std::string check_decisions(std::uint64_t admitted,
                                   std::uint64_t rejected,
                                   std::uint64_t server_admits,
                                   std::uint64_t server_rejects) {
  if (admitted != server_admits) {
    return fmt("server admitted %.0f requests, client saw %.0f grants",
               static_cast<double>(server_admits),
               static_cast<double>(admitted));
  }
  if (rejected != server_rejects) {
    return fmt("server rejected %.0f requests, client saw %.0f rejects",
               static_cast<double>(server_rejects),
               static_cast<double>(rejected));
  }
  return {};
}

/// Reserved total against capacity.
inline std::string check_capacity(double reserved, double capacity) {
  if (reserved <= capacity * (1.0 + kRelTol) + 1e-6) return {};
  return fmt("reserved %.3f b/s above capacity %.3f b/s", reserved, capacity);
}

/// Federated inter-domain segment rate: r* = max(ρ, [T_on·P + (h+K)·L] /
/// [D_req − D_tot + T_on]) over the global path, and never below the flat
/// r_min of that path.
inline std::string check_segment_rate(const std::vector<Hop>& global_hops,
                                      double l_domain, int segments,
                                      const Profile& p, double d_req,
                                      double rate) {
  const double flat = std::max(p.rho, r_min(global_hops, l_domain, p, d_req));
  if (rate < flat * (1.0 - kRelTol) - 1e-6) {
    return fmt("segment rate %.6f below flat r_min %.6f (D_req %.4f s)", rate,
               flat, d_req);
  }
  const double want =
      std::max(p.rho, rate_for(global_hops, l_domain, p, d_req, segments));
  if (!close_rate(rate, want)) {
    return fmt("segment rate %.6f != r* %.6f (K=%.0f)", rate, want,
               static_cast<double>(segments));
  }
  return {};
}

/// The paper's Table 2 (calls admitted on Figure 8, type-0 flows).
/// Columns: rate-only 2.44 s, rate-only 2.19 s, mixed 2.44 s, mixed 2.19 s.
/// Rows: IntServ/GS, per-flow BB/VTRS, aggregate cd = 0.10, 0.24, 0.50.
constexpr int kTable2[5][4] = {
    {30, 27, 30, 27},
    {30, 27, 30, 27},
    {29, 29, 29, 29},
    {29, 29, 29, 29},
    {29, 29, 29, 28},
};

inline std::string check_table2(const int got[5][4]) {
  std::string err;
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 4; ++c) {
      if (got[r][c] != kTable2[r][c]) {
        err += fmt("Table 2 row %.0f col %.0f: %.0f calls", r, c, got[r][c]) +
               " (paper " + std::to_string(kTable2[r][c]) + "); ";
      }
    }
  }
  return err;
}

}  // namespace pbcheck

#endif  // PERFBENCH_CHECKS_H_
