// Self-test of the benchmark's output checks (checks.h): each check must
// pass on a right result and fail on a deliberately wrong one.
//
//   python3 perfbench/run.py --self-test     (builds, then runs this)
//
// Exit code 0 when every check accepts its right case and refuses its
// wrong case; 1 otherwise.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

using namespace pbcheck;

int failures = 0;

void expect(const char* name, const std::string& right,
            const std::string& wrong) {
  const bool ok = right.empty() && !wrong.empty();
  std::printf("%-44s %s\n", name, ok ? "ok" : "BROKEN");
  if (!right.empty()) std::printf("  right case refused: %s\n", right.c_str());
  if (wrong.empty()) std::printf("  wrong case accepted\n");
  if (!ok) ++failures;
}

// A dumbbell path I -> L -> R -> E: 100 Gb/s access, 400 Mb/s bottleneck,
// L = 1500 B, and the paper's type-0 flow (σ 60 kb, ρ 50 kb/s, P 100 kb/s).
const std::vector<Hop> kPath = {{100e9, 0.0}, {400e6, 0.0}, {100e9, 0.0}};
constexpr double kL = 12000.0;
const Profile kType0{60000.0, 50000.0, 100000.0, 12000.0};

}  // namespace

int main() {
  // The §3.1 r_min by hand: T_on = 0.96 s, D_tot = 3e-5 + 2.4e-7 s,
  // r_min = (0.96·1e5 + 4·12000) / (D_req − D_tot + 0.96).
  const double d_req = 1.0;
  const double d_tot = 2 * kL / 100e9 + kL / 400e6;
  const double r_min = (0.96 * 1e5 + 4 * kL) / (d_req - d_tot + 0.96);
  const double bound = 0.99;

  // 1. A grant below r_min.
  expect("grant = max(rho, r_min)",
         check_grant(kPath, kL, kType0, d_req, r_min, bound),
         check_grant(kPath, kL, kType0, d_req, r_min * (1 - 1e-6), bound));
  expect("grant bound <= D_req",
         check_grant(kPath, kL, kType0, d_req, r_min, d_req),
         check_grant(kPath, kL, kType0, d_req, r_min, d_req * 1.001));

  // kNoFeasibleRate: r_min > P only below D_req = 0.48 s (+ D_tot).
  expect("kNoFeasibleRate only when r_min > P",
         check_no_feasible(kPath, kL, kType0, 0.3),
         check_no_feasible(kPath, kL, kType0, 0.6));

  // 2. A kInsufficientBandwidth reject that had room. One earlier flow of
  // 399.95 Mb/s granted leaves 50 kb/s; the query needs r_min ≈ 73.5 kb/s.
  {
    std::vector<RateSeries> grants(1), acks(1);
    grants[0].add(10, 399.95e6);
    // Sent at tick 20, answered at 30: the flow could have been held.
    const double held = max_held(grants, acks, 20, 30);
    const std::string right =
        check_insufficient(400e6, held, kPath, kL, kType0, d_req);
    // Its teardown was acknowledged at tick 15, before the query was
    // sent: nothing could have been held, so the reject had room.
    acks[0].add(15, 399.95e6);
    const double held_after = max_held(grants, acks, 20, 30);
    const std::string wrong =
        check_insufficient(400e6, held_after, kPath, kL, kType0, d_req);
    expect("kInsufficientBandwidth only without room", right, wrong);
    // An admit sent after the reply came back cannot have been held.
    std::vector<RateSeries> late(1), none(1);
    late[0].add(40, 399.95e6);
    expect("ledger bound ignores later admits",
           check_insufficient(400e6, max_held(grants, none, 20, 30), kPath,
                              kL, kType0, d_req),
           check_insufficient(400e6, max_held(late, none, 20, 30), kPath, kL,
                              kType0, d_req));
  }

  // 3. A leaked or duplicated flow: server and ledger counts differ.
  expect("leaked flow (server holds one more)", check_live_count(9000, 9000),
         check_live_count(9000, 9001));
  expect("lost flow (server holds one fewer)", check_live_count(9000, 9000),
         check_live_count(9000, 8999));
  expect("server decided an admit the client never saw",
         check_decisions(1000, 500, 1000, 500),
         check_decisions(1000, 500, 1001, 500));
  expect("client saw a reject the server never decided",
         check_decisions(1000, 500, 1000, 500),
         check_decisions(1000, 501, 1000, 500));
  expect("drained to zero", check_live_count(0, 0), check_live_count(0, 1));
  expect("capacity bound", check_capacity(400e6, 400e6),
         check_capacity(400e6 + 1.0, 400e6));

  // 4. A Table-2 cell off by one.
  {
    int table[5][4];
    for (int r = 0; r < 5; ++r) {
      for (int c = 0; c < 4; ++c) table[r][c] = kTable2[r][c];
    }
    const std::string right = check_table2(table);
    table[4][3] = 29;  // (Mixed, 2.19 s, cd = 0.50) is 28 in the paper
    expect("Table 2 cell off by one", right, check_table2(table));
  }

  // 5. An inter-domain segment rate below the flat r_min of the global
  // path. Three domains, one hop each of the 7-hop global path at 1.5 Mb/s.
  {
    const std::vector<Hop> global(7, Hop{1.5e6, 0.0});
    const Profile p{24000.0, 20000.0, 100000.0, 12000.0};
    const double d = 1.0;
    const double dt = 7 * kL / 1.5e6;
    const double t_on = (24000.0 - 12000.0) / (100000.0 - 20000.0);
    const double r_star = std::max(p.rho, (t_on * p.peak + (7 + 3) * kL) /
                                              (d - dt + t_on));
    const double flat = std::max(p.rho, (t_on * p.peak + (7 + 1) * kL) /
                                            (d - dt + t_on));
    expect("segment rate = r*",
           check_segment_rate(global, kL, 3, p, d, r_star),
           check_segment_rate(global, kL, 3, p, d, r_star * 1.001));
    expect("segment rate >= flat r_min",
           check_segment_rate(global, kL, 3, p, d, r_star),
           check_segment_rate(global, kL, 3, p, d, flat * 0.999));
  }

  std::printf("%s\n", failures == 0 ? "self-test: every check ok"
                                    : "self-test: BROKEN checks");
  return failures == 0 ? 0 : 1;
}
