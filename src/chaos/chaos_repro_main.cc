// chaos_repro --seed=N [PROFILE] [--no-flow-control] [--batch=N] [--trace]
//   [--verbose]
//
// Replays one chaos scenario and prints its description, invariant
// violations, control-plane counters and trace fingerprint. Runs the
// scenario twice to also check invariant (c): identical seeds must produce
// byte-identical event traces. PROFILE is one of the profile flags of the
// table in scenario.cc (`--lossy`, `--tenant-storm`, ...; the usage text
// lists them all); without one the seed's standard scenario runs. Exit
// code 0 iff every invariant holds.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/runner.h"
#include "chaos/trace.h"
#include "common/logging.h"
#include "common/strings.h"

namespace {

/// Parses a full decimal number; rejects empty or trailing garbage (a
/// typo must not silently replay seed 0).
bool ParseUint64(const char* text, uint64_t* value) {
  if (*text == '\0') return false;
  char* end = nullptr;
  *value = std::strtoull(text, &end, 10);
  return *end == '\0';
}

void Usage(const char* argv0) {
  std::string profiles;
  std::string lines;
  for (const gqp::chaos::ProfileInfo& info : gqp::chaos::Profiles()) {
    if (!info.flag.empty()) {
      profiles += gqp::StrCat(profiles.empty() ? "" : "|", info.flag);
    }
    const std::string flag =
        info.flag.empty() ? "(no profile flag)" : std::string(info.flag);
    lines += gqp::StrCat(gqp::StrFormat("  %-20s", flag.c_str()), info.help,
                         "\n");
  }
  std::fprintf(
      stderr,
      "usage: %s --seed=N [%s] [--no-flow-control] [--batch=N] [--trace] "
      "[--verbose]\n"
      "  --seed=N            scenario seed to replay (required)\n"
      "%s"
      "  --no-flow-control   force flow control off (A/B against a flow-"
      "control profile)\n"
      "  --batch=N           run N-row operator batches (D13; default 1)\n"
      "  --trace             dump the full event trace of the first run\n"
      "  --verbose           debug logs (discard/recall seq lists)\n",
      argv0, profiles.c_str(), lines.c_str());
}

/// The profile whose flag is `arg`, if any.
const gqp::chaos::ProfileInfo* FindProfileFlag(const char* arg) {
  for (const gqp::chaos::ProfileInfo& info : gqp::chaos::Profiles()) {
    if (!info.flag.empty() && info.flag == arg) return &info;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 0;
  bool have_seed = false;
  bool dump_trace = false;
  bool no_flow_control = false;
  size_t batch_size = 1;
  gqp::chaos::ChaosProfile profile = gqp::chaos::ChaosProfile::kStandard;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!ParseUint64(arg + 7, &seed)) {
        std::fprintf(stderr, "invalid seed: '%s'\n", arg + 7);
        return 2;
      }
      have_seed = true;
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      if (!ParseUint64(argv[++i], &seed)) {
        std::fprintf(stderr, "invalid seed: '%s'\n", argv[i]);
        return 2;
      }
      have_seed = true;
    } else if (const gqp::chaos::ProfileInfo* info = FindProfileFlag(arg)) {
      profile = info->profile;
    } else if (std::strcmp(arg, "--no-flow-control") == 0) {
      no_flow_control = true;
    } else if (std::strncmp(arg, "--batch=", 8) == 0) {
      uint64_t n = 0;
      if (!ParseUint64(arg + 8, &n) || n == 0) {
        std::fprintf(stderr, "invalid batch size: '%s'\n", arg + 8);
        return 2;
      }
      batch_size = static_cast<size_t>(n);
    } else if (std::strcmp(arg, "--trace") == 0) {
      dump_trace = true;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      gqp::Logger::SetLevel(gqp::LogLevel::kDebug);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (!have_seed) {
    Usage(argv[0]);
    return 2;
  }

  gqp::chaos::ChaosScenario scenario =
      gqp::chaos::GenerateScenario(seed, profile);
  if (no_flow_control) {
    scenario.flow_control = false;
    scenario.memory_budget_bytes = 0;
  }
  scenario.vector_batch_size = batch_size;
  std::printf("%s\n", scenario.Describe().c_str());

  gqp::chaos::ChaosRunOptions options;
  options.keep_trace = true;
  const gqp::chaos::ChaosRunResult first =
      gqp::chaos::RunScenario(scenario, options);
  const gqp::chaos::ChaosRunResult second =
      gqp::chaos::RunScenario(scenario, options);

  std::printf("run 1: events=%llu hash=%016llx rows=%zu t=%.3f ms\n",
              static_cast<unsigned long long>(first.trace_events),
              static_cast<unsigned long long>(first.trace_hash),
              first.result_rows.size(), first.final_time_ms);
  std::printf(
      "stats: rounds=%llu/%llu resent=%llu discarded=%llu "
      "med=%llu proposals=%llu\n",
      static_cast<unsigned long long>(first.stats.rounds_applied),
      static_cast<unsigned long long>(first.stats.rounds_started),
      static_cast<unsigned long long>(first.stats.resent_tuples),
      static_cast<unsigned long long>(first.stats.discarded_tuples),
      static_cast<unsigned long long>(first.stats.med_notifications),
      static_cast<unsigned long long>(first.stats.diagnoser_proposals));
  std::printf(
      "detect: beats=%llu/%llu suspected=%llu cleared=%llu confirmed=%llu "
      "readmitted=%llu stale=%llu suppressed=%llu\n",
      static_cast<unsigned long long>(first.detect.heartbeats_received),
      static_cast<unsigned long long>(first.heartbeats_sent),
      static_cast<unsigned long long>(first.detect.suspicions_raised),
      static_cast<unsigned long long>(first.detect.suspicions_cleared),
      static_cast<unsigned long long>(first.detect.failures_confirmed),
      static_cast<unsigned long long>(first.detect.readmissions),
      static_cast<unsigned long long>(first.detect.stale_heartbeats),
      static_cast<unsigned long long>(first.heartbeats_suppressed));
  std::printf(
      "transport: sent=%llu retransmit=%llu backoff=%llu dedup=%llu "
      "abandoned=%llu net_loss=%llu net_partition=%llu\n",
      static_cast<unsigned long long>(first.transport.sent),
      static_cast<unsigned long long>(first.transport.retransmits),
      static_cast<unsigned long long>(first.transport.backoffs),
      static_cast<unsigned long long>(first.transport.dedup_hits),
      static_cast<unsigned long long>(first.transport.abandoned),
      static_cast<unsigned long long>(first.net.loss_drops),
      static_cast<unsigned long long>(first.net.partition_drops));
  std::printf(
      "queues: high_watermark=%zu parked_peak=%zu bytes_peak=%llu "
      "grants=%llu pressure=%llu pressure_proposals=%llu blocked=%llu "
      "outstanding_peak=%llu first_pressure=%.3f first_rate=%.3f\n",
      first.stats.queue_high_watermark, first.stats.parked_peak,
      static_cast<unsigned long long>(first.stats.queued_bytes_peak),
      static_cast<unsigned long long>(first.stats.credit_grants_sent),
      static_cast<unsigned long long>(first.stats.queue_pressure_events),
      static_cast<unsigned long long>(first.stats.pressure_proposals),
      static_cast<unsigned long long>(first.stats.credit_blocked_events),
      static_cast<unsigned long long>(
          first.stats.peak_outstanding_credit_bytes),
      first.stats.first_pressure_proposal_ms,
      first.stats.first_rate_proposal_ms);
  if (scenario.coordinator_standby) {
    std::printf(
        "mirror: entries=%llu acked=%llu lag=%llu stale_epoch_dropped=%llu "
        "epoch_updates=%llu\n",
        static_cast<unsigned long long>(first.mirror_entries),
        static_cast<unsigned long long>(first.mirror_acked),
        static_cast<unsigned long long>(first.mirror_entries -
                                        first.mirror_acked),
        static_cast<unsigned long long>(first.stale_epoch_dropped),
        static_cast<unsigned long long>(first.epoch_updates));
    if (first.takeover.taken_over) {
      std::printf(
          "takeover: epoch=%llu at=%.3f ms latency=%.3f ms "
          "applied=%llu held_back=%llu reconciled=%d retried=%d "
          "terminated=%d mirrored=%d probes=%d/%d instances=%d "
          "releases=%d\n",
          static_cast<unsigned long long>(first.takeover.epoch),
          first.takeover.takeover_at_ms,
          first.takeover.takeover_at_ms - scenario.coordinator_kill_at_ms,
          static_cast<unsigned long long>(
              first.takeover.mirror_entries_applied),
          static_cast<unsigned long long>(
              first.takeover.mirror_entries_held_back),
          first.takeover.queries_reconciled, first.takeover.queries_retried,
          first.takeover.queries_terminated,
          first.takeover.queries_served_mirrored,
          first.takeover.probe_replies, first.takeover.probes_sent,
          first.takeover.instances_probed, first.takeover.releases_sent);
    } else {
      std::printf("takeover: none (primary survived)\n");
    }
  }
  if (first.per_query.size() > 1) {
    for (const gqp::chaos::QueryOutcome& q : first.per_query) {
      std::printf(
          "query q%d (%s): %s rows=%zu response=%.3f ms "
          "queued_bytes_peak=%llu rounds_applied=%llu\n",
          q.query_id, gqp::QueryKindName(q.kind).c_str(),
          q.completed ? "completed" : "INCOMPLETE", q.rows, q.response_ms,
          static_cast<unsigned long long>(q.queued_bytes_peak),
          static_cast<unsigned long long>(q.rounds_applied));
    }
  }
  if (scenario.storm_tenants > 0) {
    std::fputs(first.workload.Render().c_str(), stdout);
    std::printf(
        "admission: submitted=%llu admitted=%llu queue_full=%llu "
        "shed_queued=%llu shed_running=%llu pressure=%llu rounds=%llu "
        "queue_peak=%zu\n",
        static_cast<unsigned long long>(first.admission.submitted),
        static_cast<unsigned long long>(first.admission.admitted),
        static_cast<unsigned long long>(first.admission.rejected_queue_full),
        static_cast<unsigned long long>(first.admission.shed_queued),
        static_cast<unsigned long long>(first.admission.shed_running),
        static_cast<unsigned long long>(first.admission.pressure_events),
        static_cast<unsigned long long>(first.admission.shed_rounds),
        first.admission.queue_peak);
  }

  bool ok = first.ok();
  if (!first.status.ok()) {
    std::printf("run error: %s\n", first.status.ToString().c_str());
  }
  for (const std::string& v : first.violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }

  // Invariant (c): replay determinism.
  if (first.trace != second.trace) {
    ok = false;
    std::printf(
        "VIOLATION [determinism] replays diverge at trace line %zu "
        "(hashes %016llx vs %016llx) — repro: %s\n",
        gqp::chaos::FirstTraceDivergence(first.trace, second.trace),
        static_cast<unsigned long long>(first.trace_hash),
        static_cast<unsigned long long>(second.trace_hash),
        gqp::chaos::ReproCommand(seed, profile, batch_size).c_str());
  } else if (first.result_rows != second.result_rows) {
    ok = false;
    std::printf(
        "VIOLATION [determinism] identical traces but different result "
        "rows — repro: %s\n",
        gqp::chaos::ReproCommand(seed, profile, batch_size).c_str());
  } else if (first.workload.Render() != second.workload.Render()) {
    ok = false;
    std::printf(
        "VIOLATION [determinism] identical traces but different workload "
        "reports — repro: %s\n",
        gqp::chaos::ReproCommand(seed, profile, batch_size).c_str());
  }

  if (dump_trace) std::fputs(first.trace.c_str(), stdout);
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
