//===- tools/calibro-compiled.cpp - Concurrent compile daemon CLI ---------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-service front end: accepts many app-build jobs and runs them
/// concurrently over one shared thread pool, one shared build cache, and
/// one global memory budget (service::CompileService). The cache directory
/// has the same layout as a calibro-dex2oat store (VERSION, m/, g/), so
/// `calibro-oatdump --cache-audit` reads either.
///
/// Jobs arrive one per line on stdin:
///
///   app=<name> scale=<s> [seed=<n>] [budget=<bytes>] out=<path>
///
/// and every accepted job's OAT is written to its out path. Each image is
/// byte-identical to what a serial `calibro-dex2oat` build of the same spec
/// produces — the CI service-smoke job cmp's exactly that.
///
///   printf 'app=Wechat scale=0.3 out=w.oat\napp=Fanqie scale=0.3 out=f.oat\n' |
///     calibro-compiled --jobs 4 --threads 8 --cto --ltbo
///         --cache-dir /tmp/fleet --cache-budget 64000000
///         --global-memory-budget 8000000 --job-log jobs.jsonl
///
//===----------------------------------------------------------------------===//

#include "oat/Serialize.h"
#include "service/CompileService.h"
#include "service/JobLine.h"
#include "support/NumericArgs.h"
#include "workload/Workload.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace calibro;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: calibro-compiled [options] < jobs\n"
      "job lines (stdin): app=<name> scale=<s> [seed=<n>] [budget=<bytes>] "
      "out=<path>\n"
      "  (scale: a number > 0; seed, budget and every numeric option: a\n"
      "  decimal integer)\n"
      "service options:\n"
      "  --jobs <n>             concurrent jobs in flight (default 2)\n"
      "  --queue-depth <n>      max jobs waiting beyond the running ones;\n"
      "                         beyond it submissions are rejected and\n"
      "                         retried with backoff (default 8)\n"
      "  --threads <n>          workers of the one shared pool (0 = all)\n"
      "  --cache-dir <dir>      shared build cache, the calibro-dex2oat\n"
      "                         store layout (empty = none)\n"
      "  --cache-budget <bytes> LRU byte budget of the shared cache (0 = "
      "unbounded)\n"
      "  --global-memory-budget <bytes>  bound the SUM of concurrent jobs'\n"
      "                         detect budgets; each job gets a fair-share\n"
      "                         lease (output stays byte-identical)\n"
      "  --job-log <file>       machine-readable JSONL job log\n"
      "build options (applied to every job):\n"
      "  --cto --ltbo --partitions <k> --min-len <n> --max-len <n>\n"
      "  --verify --strict --dead-code --no-gc --no-merge --strict-gc\n"
      "  --layout / --no-layout  profile-driven function layout (default\n"
      "                          on; arms only for jobs with a profile and\n"
      "                          a closed world — otherwise byte-identical\n"
      "                          to a build without the stage)\n");
  std::exit(2);
}

const char *next(int &I, int Argc, char **Argv) {
  if (++I >= Argc)
    usage();
  return Argv[I];
}

/// The next argument as an integer in [Min, Max]; anything else is a usage
/// error.
uint64_t nextUnsigned(int &I, int Argc, char **Argv, uint64_t Min,
                      uint64_t Max = UINT32_MAX) {
  auto V = support::parseUnsigned(next(I, Argc, Argv), Min, Max);
  if (!V)
    usage();
  return *V;
}

} // namespace

int main(int argc, char **argv) {
  service::ServiceOptions SOpts;
  core::CalibroOptions Build;
  bool DeadCode = false;
  bool ExplicitPartitions = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--jobs")
      SOpts.JobSlots = nextUnsigned(I, argc, argv, 1);
    else if (A == "--queue-depth")
      SOpts.QueueDepth = nextUnsigned(I, argc, argv, 0);
    else if (A == "--threads")
      SOpts.Threads = nextUnsigned(I, argc, argv, 0);
    else if (A == "--cache-dir")
      SOpts.CacheDir = next(I, argc, argv);
    else if (A == "--cache-budget")
      SOpts.CacheBudgetBytes = nextUnsigned(I, argc, argv, 0, UINT64_MAX);
    else if (A == "--global-memory-budget")
      SOpts.GlobalMemoryBudgetBytes =
          nextUnsigned(I, argc, argv, 0, UINT64_MAX);
    else if (A == "--job-log")
      SOpts.JobLogPath = next(I, argc, argv);
    else if (A == "--cto")
      Build.EnableCto = true;
    else if (A == "--ltbo")
      Build.EnableLtbo = true;
    else if (A == "--partitions") {
      Build.LtboPartitions =
          nextUnsigned(I, argc, argv, 1, core::MaxPartitions);
      ExplicitPartitions = true;
    } else if (A == "--min-len")
      Build.MinSeqLen = nextUnsigned(I, argc, argv, 2);
    else if (A == "--max-len")
      Build.MaxSeqLen = nextUnsigned(I, argc, argv, 2);
    else if (A == "--verify")
      Build.VerifyOutput = true;
    else if (A == "--strict")
      Build.StrictSideInfo = true;
    else if (A == "--dead-code")
      DeadCode = true;
    else if (A == "--no-gc")
      Build.EnableGc = false;
    else if (A == "--no-merge")
      Build.EnableMerge = false;
    else if (A == "--strict-gc")
      Build.StrictCallGraph = true;
    else if (A == "--layout")
      Build.EnableLayout = true;
    else if (A == "--no-layout")
      Build.EnableLayout = false;
    else
      usage();
  }

  struct Pending {
    service::JobLine Line;
    std::unique_ptr<dex::App> App;
    std::shared_ptr<service::JobHandle> Handle;
  };
  // Declared BEFORE the service: in-flight jobs reference these apps, so on
  // any exit path the service must drain (its destructor) before Jobs dies.
  std::vector<Pending> Jobs;

  auto Svc = service::CompileService::create(SOpts);
  if (!Svc) {
    std::fprintf(stderr, "%s\n", Svc.message().c_str());
    return 1;
  }

  std::string Line;
  while (std::getline(std::cin, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    service::JobLine J;
    if (!service::parseJobLine(Line, J)) {
      std::fprintf(stderr, "bad job line: %s\n", Line.c_str());
      usage();
    }
    workload::AppSpec Spec;
    bool Found = false;
    for (const auto &S : workload::paperApps(J.Scale))
      if (S.Name == J.AppName) {
        Spec = S;
        Found = true;
      }
    if (!Found) {
      std::fprintf(stderr, "unknown app '%s'\n", J.AppName.c_str());
      return 2;
    }
    if (J.Seed)
      Spec.Seed = J.Seed;
    if (DeadCode)
      workload::enableDeadCode(Spec);

    Pending P;
    P.Line = J;
    P.App = std::make_unique<dex::App>(workload::makeApp(Spec));

    service::JobSpec Job;
    Job.Name = J.AppName + ":" + J.Out;
    Job.App = P.App.get();
    Job.Build = Build;
    // A budget with no explicit K lets the outliner derive the partition
    // count from the granted budget (Partitions = 0 means "auto").
    if ((J.BudgetBytes || SOpts.GlobalMemoryBudgetBytes) &&
        !ExplicitPartitions)
      Job.Build.LtboPartitions = 0;
    Job.MemoryBudgetBytes = J.BudgetBytes;

    // Backpressure: a full queue is the service telling us to slow down,
    // not an error. Retry with a small backoff until admitted.
    for (;;) {
      auto H = (*Svc)->submit(Job);
      if (H) {
        P.Handle = std::move(*H);
        break;
      }
      if (H.category() != ErrCat::Service) {
        std::fprintf(stderr, "%s\n", H.message().c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Jobs.push_back(std::move(P));
  }

  int Failures = 0;
  for (auto &P : Jobs) {
    const service::JobRecord &R = P.Handle->wait();
    if (!R.Ok) {
      std::fprintf(stderr, "job %s failed [%s]: %s\n", R.Name.c_str(),
                   errCatName(R.ErrorCategory), R.ErrorMessage.c_str());
      ++Failures;
      continue;
    }
    if (auto E = oat::writeOatFile(P.Handle->oat(), P.Line.Out)) {
      std::fprintf(stderr, "%s\n", E.message().c_str());
      ++Failures;
      continue;
    }
    std::fprintf(stderr,
                 "job %s: .text %llu bytes, queue %.3fs, build %.3fs, "
                 "cache %zu/%zu hits, budget %llu\n",
                 R.Name.c_str(), (unsigned long long)R.Stats.TextBytes,
                 R.QueueSeconds, R.BuildSeconds, R.Stats.CacheHits,
                 R.Stats.CacheHits + R.Stats.CacheMisses,
                 (unsigned long long)R.GrantedBudgetBytes);
  }

  (*Svc)->shutdown();
  service::ServiceStats St = (*Svc)->stats();
  std::fprintf(stderr,
               "service: %llu accepted, %llu rejected (retried), %llu ok, "
               "%llu failed, peak queue %llu, arbiter peak %llu bytes\n",
               (unsigned long long)St.JobsAccepted,
               (unsigned long long)St.JobsRejected,
               (unsigned long long)St.JobsSucceeded,
               (unsigned long long)St.JobsFailed,
               (unsigned long long)St.PeakQueueDepth,
               (unsigned long long)St.ArbiterPeakBytes);
  if (auto *C = (*Svc)->sharedCache()) {
    cache::CacheStats CS = C->stats();
    std::fprintf(stderr,
                 "cache: %llu/%llu method hits, %llu/%llu group hits, "
                 "%llu evictions (%llu bytes), %llu resident bytes\n",
                 (unsigned long long)CS.MethodHits,
                 (unsigned long long)(CS.MethodHits + CS.MethodMisses),
                 (unsigned long long)CS.GroupHits,
                 (unsigned long long)(CS.GroupHits + CS.GroupMisses),
                 (unsigned long long)CS.Evictions,
                 (unsigned long long)CS.EvictedBytes,
                 (unsigned long long)CS.ResidentBytes);
  }
  return Failures ? 1 : 0;
}
