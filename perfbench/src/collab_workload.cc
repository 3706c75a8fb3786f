// Workload `collab`: edit -> every replica.
//
// A DocumentServer hosts one shared text; 64 ClientSessions reach it over
// clean SimulatedLinks.  The starting text is generated before set-up;
// hosting it and attaching the sessions (hello, hello-ack and the §5
// snapshot each client reads) is set-up.  Each round replays a seeded
// SessionTrace of 128 edits in lock step: one session submits an edit, then
// the loop pumps every client, the server and every link, one tick at a
// time, until every replica has applied the edit's version.  One op is one
// edit, timed from SubmitEdit until the last replica applied it.
//
// Each round's trace is generated against the document as it stands, with
// more deletes while the text is above its target size, so the document
// stays in a band.  Checks: every edit reaches every replica within a tick
// budget, and at the end of every round the server's text and every
// replica equal ExpectedFinalText(trace).

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/components/text/text_data.h"
#include "src/server/client_session.h"
#include "src/server/document_server.h"
#include "src/server/transport_sim.h"
#include "src/workload/session_trace.h"

namespace perfbench {
namespace {

using atk::observability::MetricsRegistry;
using atk::server::ClientSession;
using atk::server::DocumentServer;
using atk::server::SimulatedLink;

constexpr int kSessions = 64;
constexpr int kEditsPerRound = 128;
constexpr int64_t kTargetChars = 8192;
constexpr int64_t kBand = 512;
constexpr int kTickBudget = 4096;
const char* const kDocName = "collab";

class CollabWorkload : public Workload {
 public:
  explicit CollabWorkload(const Options& options) : options_(options) {}

  void MakeInputs() {
    atk::SessionTraceSpec spec;
    spec.seed = options_.seed;
    spec.sessions = kSessions;
    spec.steps = 0;
    spec.initial_size = kTargetChars;
    initial_text_ = atk::BuildSessionTrace(spec).initial_text;
  }

  bool SetUp(Recorder& rec) override {
    server_ = std::make_unique<DocumentServer>();
    auto doc = std::make_unique<atk::TextData>();
    doc->SetText(initial_text_);
    server_->HostDocument(kDocName, std::move(doc));
    for (int i = 0; i < kSessions; ++i) {
      links_.push_back(std::make_unique<SimulatedLink>(atk::TransportFaultPlan::Clean()));
      server_->AttachLink(links_.back().get());
      clients_.push_back(std::make_unique<ClientSession>("client-" + std::to_string(i),
                                                         kDocName, links_.back().get()));
    }
    uint64_t attach = 0;
    {
      LayerTimer t("bench.server.attach", attach);
      for (auto& client : clients_) {
        client->Connect(0);
      }
      TickSums unused;
      for (int tick = 0; tick < kTickBudget && !AllSynced(); ++tick) {
        Step(unused);
      }
    }
    rec.samples("server.attach_us").push_back(static_cast<double>(attach) / 1e3);
    if (!AllSynced()) {
      rec.Problem("sessions did not attach within the tick budget");
      return false;
    }
    const std::string text = server_->document(kDocName)->GetAllText();
    for (auto& client : clients_) {
      if (client->replica() == nullptr || client->replica()->GetAllText() != text) {
        rec.Problem("a replica's snapshot differs from the server's document");
        return false;
      }
    }
    return true;
  }

  void TearDown() override {
    clients_.clear();
    server_.reset();
    links_.clear();
  }

  void RunRound(Recorder& rec) override {
    atk::TextData* doc = server_->document(kDocName);
    const int64_t size = doc->size();
    atk::SessionTraceSpec spec;
    spec.seed = options_.seed * 1000003 + static_cast<uint64_t>(++rounds_);
    spec.sessions = kSessions;
    spec.steps = kEditsPerRound;
    spec.initial_size = size;
    spec.delete_ratio = size > kTargetChars + kBand ? 0.6 : size < kTargetChars - kBand ? 0.25 : 0.4;
    atk::SessionTrace trace = atk::BuildSessionTrace(spec);
    // The trace's positions were generated for a document of this length;
    // replay it over the text the server actually holds.
    trace.initial_text = doc->GetAllText();

    static atk::observability::Counter& frames =
        MetricsRegistry::Instance().counter("server.frames.sent");
    static atk::observability::Counter& retries =
        MetricsRegistry::Instance().counter("server.retries.frame");
    TickSums sums;
    uint64_t submit_ns = 0;
    uint64_t version = server_->version(kDocName);
    for (const atk::TraceStep& step : trace.steps) {
      atk::server::EditOp op;
      op.kind = step.insert ? atk::server::EditOp::Kind::kInsert
                            : atk::server::EditOp::Kind::kDelete;
      op.pos = step.pos;
      op.len = step.len;
      op.text = step.text;
      const uint64_t frames_before = frames.value();
      const uint64_t retries_before = retries.value();
      const uint64_t start = NowNs();
      {
        LayerTimer t("bench.server.submit", submit_ns);
        clients_[static_cast<size_t>(step.session)]->SubmitEdit(std::move(op));
      }
      ++version;
      int ticks = 0;
      while (!AllAtVersion(version) && ticks < kTickBudget) {
        Step(sums);
        ++ticks;
      }
      rec.Op(static_cast<double>(NowNs() - start) / 1e3);
      rec.count("server.ticks_per_op") += ticks;
      rec.count("server.frames_per_op") += static_cast<double>(frames.value() - frames_before);
      rec.count("server.retransmits_per_op") +=
          static_cast<double>(retries.value() - retries_before);
      if (!AllAtVersion(version)) {
        rec.Problem("edit " + std::to_string(version) + " did not reach every replica");
        rec.Fail("edit " + std::to_string(version));
      }
    }

    rec.ns("server.submit_us") += submit_ns;
    rec.ns("server.client_pump_us") += sums.client_pump;
    rec.ns("server.pump_us") += sums.server_pump;
    rec.ns("server.link_tick_us") += sums.link_tick;

    if (options_.fault == Fault::kReplicaBehindServer) {
      clients_[3]->replica()->InsertString(0, "x");
    }
    const std::string expected = atk::ExpectedFinalText(trace);
    if (doc->GetAllText() != expected) {
      rec.Problem("round " + std::to_string(rounds_) + ": server text differs from the trace");
    }
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->replica()->GetAllText() != expected) {
        rec.Problem("round " + std::to_string(rounds_) + ": replica " + std::to_string(i) +
                    " differs from the trace");
      }
    }
  }

  std::string Describe() override {
    return "{\"sessions\": " + std::to_string(kSessions) +
           ", \"edits_per_round\": " + std::to_string(kEditsPerRound) +
           ", \"document_chars\": " +
           std::to_string(server_->document(kDocName)->size()) + "}";
  }

 private:
  // Time spent in each part of a tick, summed over ticks.
  struct TickSums {
    uint64_t client_pump = 0;
    uint64_t server_pump = 0;
    uint64_t link_tick = 0;
  };

  // One lock-step tick: every client, then the server, then every link.
  void Step(TickSums& sums) {
    {
      LayerTimer t("bench.server.client_pump", sums.client_pump);
      for (size_t i = 0; i < clients_.size(); ++i) {
        clients_[i]->Pump(links_[i]->now());
      }
    }
    {
      LayerTimer t("bench.server.pump", sums.server_pump);
      server_->PumpOnce();
    }
    {
      LayerTimer t("bench.server.link_tick", sums.link_tick);
      for (auto& link : links_) {
        link->Tick();
      }
    }
  }

  bool AllSynced() const {
    for (const auto& client : clients_) {
      if (!client->synced()) {
        return false;
      }
    }
    return true;
  }

  bool AllAtVersion(uint64_t version) const {
    for (const auto& client : clients_) {
      if (client->applied_version() < version) {
        return false;
      }
    }
    return true;
  }

  Options options_;
  std::string initial_text_;
  std::vector<std::unique_ptr<SimulatedLink>> links_;
  std::unique_ptr<DocumentServer> server_;
  std::vector<std::unique_ptr<ClientSession>> clients_;  // Destroyed first.
  uint64_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCollabWorkload(const Options& options, Recorder&) {
  auto wl = std::make_unique<CollabWorkload>(options);
  wl->MakeInputs();
  return wl;
}

}  // namespace perfbench
