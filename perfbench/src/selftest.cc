#include "perfbench/src/selftest.h"

#include <cstdio>
#include <string>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

struct Case {
  const char* name;
  const char* workload;
  Fault fault;
  int rounds;
  const char* expect;  // Substring of the finding that must appear.
  const char* absent = nullptr;  // Substring of a finding that must not.
};

// Runs `rounds` whole rounds of a workload with `fault` planted; returns the
// recorder for inspection.
Recorder RunRounds(const char* workload, Fault fault, int rounds) {
  Options opt;
  opt.workload = workload;
  opt.seed = 11;
  opt.fault = fault;
  std::string w = workload;
  Recorder rec;
  std::unique_ptr<Workload> wl = w == "type"   ? MakeTypeWorkload(opt, rec)
                                 : w == "open" ? MakeOpenWorkload(opt, rec)
                                               : MakeCollabWorkload(opt, rec);
  if (wl == nullptr || !wl->SetUp(rec)) {
    rec.Problem("set-up failed");
    return rec;
  }
  for (int i = 0; i < rounds; ++i) {
    wl->RunRound(rec);
  }
  return rec;
}

bool Mentions(const Recorder& rec, const char* what) {
  for (const std::string& note : rec.notes()) {
    if (note.find(what) != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

int RunSelfTests() {
  LoadToolkitModules();
  const Case cases[] = {
      {"model missing one key", "type", Fault::kModelDropsKey, 2, "differs from the model"},
      {"one-pixel frame change", "type", Fault::kFramePixel, 2, "differs from a full repaint"},
      {"flipped byte in a round trip", "open", Fault::kRoundTripFlip, 1,
       "does not reproduce its bytes", "differ from the generator's"},
      {"replica edited behind the server", "collab", Fault::kReplicaBehindServer, 1,
       "differs from the trace"},
  };
  int bad = 0;
  for (const Case& c : cases) {
    Recorder clean = RunRounds(c.workload, Fault::kNone, c.rounds);
    const bool clean_ok = clean.correct();
    Recorder planted = RunRounds(c.workload, c.fault, c.rounds);
    const bool caught = !planted.correct() && Mentions(planted, c.expect) &&
                        (c.absent == nullptr || !Mentions(planted, c.absent));
    std::printf("%s  %-34s control %s, planted fault %s\n", clean_ok && caught ? "PASS" : "FAIL",
                c.name, clean_ok ? "correct" : "WRONG", caught ? "caught" : "MISSED");
    if (!clean_ok || !caught) {
      ++bad;
      for (const std::string& note : (clean_ok ? planted : clean).notes()) {
        std::printf("      %s\n", note.c_str());
      }
    }
  }
  // The named fault: every probe op fails, inside the scroll-bar strip only.
  for (const char* workload : {"type", "open"}) {
    Recorder rec = RunRounds(workload, Fault::kNone, 2);
    const bool ok = rec.correct() && rec.failed() == 2 && Mentions(rec, "strip");
    std::printf("%s  %-34s %llu of %llu ops failed\n", ok ? "PASS" : "FAIL",
                (std::string(workload) + " probe fails in the strip").c_str(),
                static_cast<unsigned long long>(rec.failed()),
                static_cast<unsigned long long>(rec.attempted()));
    bad += ok ? 0 : 1;
  }
  std::printf("%s\n", bad == 0 ? "selftest: all checks can fail" : "selftest: FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
