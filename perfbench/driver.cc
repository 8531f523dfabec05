// perfbench_driver: the benchmark's load generators and in-process drivers.
// run.py calls one subcommand per phase of a workload; each prints one JSON
// line with its raw counts, timings and check results.

#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {
int wire_run(const Args& a);
int wire_final(const Args& a);
int wire_replay(const Args& a);
int federation_run(const Args& a);
int engine_run(const Args& a);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver wire-run|wire-final|wire-replay|"
                 "federation|engine --key=value ...\n");
    return 2;
  }
  const Args args(argc, argv, 2);
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "wire-run") == 0) return wire_run(args);
  if (std::strcmp(cmd, "wire-final") == 0) return wire_final(args);
  if (std::strcmp(cmd, "wire-replay") == 0) return wire_replay(args);
  if (std::strcmp(cmd, "federation") == 0) return federation_run(args);
  if (std::strcmp(cmd, "engine") == 0) return engine_run(args);
  std::fprintf(stderr, "perfbench_driver: unknown subcommand %s\n", cmd);
  return 2;
}
