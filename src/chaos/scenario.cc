#include "chaos/scenario.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/random.h"
#include "common/strings.h"
#include "detect/heartbeat.h"

namespace gqp {
namespace chaos {

namespace {

constexpr ProfileInfo kProfiles[] = {
    {ChaosProfile::kStandard, "", "", "standard chaos schedule (the default)"},
    {ChaosProfile::kLossy, "--lossy", "lossy",
     "lossy-network profile (loss, partitions, stalls)"},
    {ChaosProfile::kSlowConsumer, "--slow-consumer", "slow",
     "sustained CPU sag on one evaluator, flow control on"},
    {ChaosProfile::kMemorySqueeze, "--memory-squeeze", "squeeze",
     "standard chaos under a tight memory budget"},
    {ChaosProfile::kMultiQuery, "--multi-query", "mq",
     "standard chaos with several overlapping queries"},
    {ChaosProfile::kCoordinatorKill, "--coordinator-kill", "coord",
     "crash the primary coordinator; a standby GDQS takes over (D14)"},
    {ChaosProfile::kTenantStorm, "--tenant-storm", "storm",
     "open-loop multi-tenant overload under GDQS admission control (D16)"},
};

std::string_view KindName(PerturbationEvent::Kind kind) {
  switch (kind) {
    case PerturbationEvent::Kind::kConstantFactor:
      return "factor";
    case PerturbationEvent::Kind::kAddedDelay:
      return "sleep";
    case PerturbationEvent::Kind::kGaussianFactor:
      return "gauss";
    case PerturbationEvent::Kind::kDrift:
      return "drift";
    case PerturbationEvent::Kind::kStep:
      return "step";
    case PerturbationEvent::Kind::kClear:
      return "clear";
  }
  return "?";
}

}  // namespace

std::string PerturbationEvent::Describe() const {
  std::string out =
      StrCat("t", at_ms, ":e", evaluator, ":", KindName(kind));
  if (node_wide) out += ":node";
  switch (kind) {
    case Kind::kConstantFactor:
    case Kind::kAddedDelay:
      out += StrCat("(", p0, ")");
      break;
    case Kind::kGaussianFactor:
      out += StrCat("(", p0, ",", p1, ",[", p2, ",", p3, "])");
      break;
    case Kind::kDrift:
      out += StrCat("(", p0, ",", p1, ")");
      break;
    case Kind::kStep:
      out += StrCat("(", steps.size(), " steps)");
      break;
    case Kind::kClear:
      break;
  }
  return out;
}

std::string ChaosScenario::Describe() const {
  std::string caps;
  for (size_t i = 0; i < capacities.size(); ++i) {
    if (i > 0) caps += ",";
    caps += StrCat(capacities[i]);
  }
  std::string out = StrCat(
      "seed=", seed, " query=", QueryKindName(query),
      " rows=", sequences, "/", interactions, " evals=", num_evaluators,
      " caps=[", caps, "] link=", initial_link.latency_ms, "ms/",
      initial_link.bandwidth_bytes_per_ms, " assess=",
      AssessmentTypeToString(assessment), " resp=",
      ResponseTypeToString(response), " ckpt=", checkpoint_interval,
      " m1=", m1_frequency, " med=", med_window, " buf=", buffer_tuples);
  if (!perturbations.empty()) {
    out += " perturb=[";
    for (size_t i = 0; i < perturbations.size(); ++i) {
      if (i > 0) out += " ";
      out += perturbations[i].Describe();
    }
    out += "]";
  }
  if (!failures.empty()) {
    out += " fail=[";
    for (size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) out += " ";
      out += StrCat("t", failures[i].at_ms, ":e", failures[i].evaluator);
    }
    out += "]";
  }
  if (!link_shifts.empty()) {
    out += " links=[";
    for (size_t i = 0; i < link_shifts.size(); ++i) {
      if (i > 0) out += " ";
      out += StrCat("t", link_shifts[i].at_ms, ":",
                    link_shifts[i].params.latency_ms, "ms/",
                    link_shifts[i].params.bandwidth_bytes_per_ms);
    }
    out += "]";
  }
  if (loss_rate > 0.0) {
    out += StrCat(" loss=", loss_rate, " hb=", heartbeat_interval_ms);
  }
  if (flow_control) {
    out += StrCat(" fc=on budget=", memory_budget_bytes);
  }
  if (vector_batch_size != 1) {
    out += StrCat(" batch=", vector_batch_size);
  }
  if (!partitions.empty()) {
    out += " part=[";
    for (size_t i = 0; i < partitions.size(); ++i) {
      if (i > 0) out += " ";
      out += StrCat("t", partitions[i].at_ms, "+", partitions[i].duration_ms,
                    ":e", partitions[i].evaluator);
    }
    out += "]";
  }
  if (!stalls.empty()) {
    out += " stall=[";
    for (size_t i = 0; i < stalls.size(); ++i) {
      if (i > 0) out += " ";
      out += StrCat("t", stalls[i].at_ms, "+", stalls[i].duration_ms, ":e",
                    stalls[i].evaluator);
    }
    out += "]";
  }
  if (coordinator_standby) {
    out += " standby=on";
    if (coordinator_kill) out += StrCat(" coordkill=t", coordinator_kill_at_ms);
    if (deadline_ms > 0) out += StrCat(" deadline=", deadline_ms);
  }
  if (!extra_queries.empty()) {
    out += " mq=[";
    for (size_t i = 0; i < extra_queries.size(); ++i) {
      if (i > 0) out += " ";
      out += StrCat("t", extra_queries[i].submit_at_ms, ":",
                    QueryKindName(extra_queries[i].kind));
    }
    out += "]";
  }
  if (!storm.tenants.empty()) {
    // Tenant 0 is the bursting one; the others share its base rate.
    const TenantSpec& first = storm.tenants.front();
    out += StrCat(" storm=[tenants=", storm.tenants.size(),
                  " rate=", first.arrival_rate_qps,
                  "qps burst=", first.burst_multiplier,
                  "x horizon=", storm.horizon_ms,
                  "ms queue=", admission.queue_capacity,
                  " conc=", admission.max_concurrent_queries,
                  " pertenant=", admission.per_tenant_inflight_cap,
                  " deadline=", storm.deadline_ms, "]");
  }
  return out;
}

ChaosScenario GenerateScenario(uint64_t seed, ChaosProfile profile) {
  // Every draw happens in a fixed order so the scenario is a pure function
  // of the seed; never reorder or make draws conditional on earlier ones
  // unless the condition itself is seed-deterministic.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ChaosScenario s;
  s.seed = seed;
  s.profile = profile;
  // Every chaos run adapts and detects crashes through missed heartbeats
  // (set, not drawn: the draw sequence stays the same).
  s.adaptivity = true;
  s.failure_detection = true;

  s.query = rng.NextBool(0.5) ? QueryKind::kQ1 : QueryKind::kQ2;
  s.sequences = static_cast<size_t>(rng.NextInt(150, 600));
  s.interactions = static_cast<size_t>(rng.NextInt(200, 900));
  s.sequence_length = static_cast<size_t>(rng.NextInt(16, 48));
  s.ws_cost_ms = rng.NextDouble(0.1, 0.4);

  s.num_evaluators = static_cast<int>(rng.NextInt(2, 4));
  for (int i = 0; i < s.num_evaluators; ++i) {
    s.capacities.push_back(rng.NextDouble(0.5, 2.0));
  }
  s.initial_link.latency_ms = rng.NextDouble(0.1, 2.0);
  s.initial_link.bandwidth_bytes_per_ms = rng.NextDouble(4000.0, 20000.0);

  s.assessment =
      rng.NextBool(0.5) ? AssessmentType::kA1 : AssessmentType::kA2;
  s.response = rng.NextBool(0.5) ? ResponseType::kProspective
                                 : ResponseType::kRetrospective;
  // R2 cannot preserve correctness for partitioned stateful operators
  // (the GDQS rejects it for the join); override after the draw so the
  // draw sequence stays identical across queries.
  if (s.query == QueryKind::kQ2) s.response = ResponseType::kRetrospective;
  static constexpr size_t kCheckpoints[] = {1, 5, 25, 50};
  s.checkpoint_interval = kCheckpoints[rng.NextBelow(4)];
  static constexpr size_t kM1[] = {1, 5, 10, 20};
  s.m1_frequency = kM1[rng.NextBelow(4)];
  static constexpr size_t kWindows[] = {5, 10, 25};
  s.med_window = kWindows[rng.NextBelow(3)];
  static constexpr size_t kBuffers[] = {10, 25, 50};
  s.buffer_tuples = kBuffers[rng.NextBelow(3)];
  s.thres_m = rng.NextDouble(0.10, 0.40);
  s.thres_a = rng.NextDouble(0.10, 0.40);

  // Perturbation schedule: 0-3 profile installations at random times on
  // random evaluators.
  const int num_perturbations = static_cast<int>(rng.NextInt(0, 3));
  for (int i = 0; i < num_perturbations; ++i) {
    PerturbationEvent ev;
    ev.at_ms = rng.NextDouble(0.0, 400.0);
    ev.evaluator = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(s.num_evaluators)));
    ev.node_wide = rng.NextBool(0.25);
    ev.profile_seed = rng.Next();
    switch (rng.NextBelow(6)) {
      case 0:
        ev.kind = PerturbationEvent::Kind::kConstantFactor;
        ev.p0 = rng.NextDouble(2.0, 30.0);
        break;
      case 1:
        ev.kind = PerturbationEvent::Kind::kAddedDelay;
        ev.p0 = rng.NextDouble(1.0, 12.0);
        break;
      case 2: {
        ev.kind = PerturbationEvent::Kind::kGaussianFactor;
        ev.p0 = rng.NextDouble(5.0, 30.0);   // mean
        ev.p1 = rng.NextDouble(1.0, 10.0);   // stddev
        ev.p2 = std::max(1.0, ev.p0 - rng.NextDouble(2.0, 15.0));  // lo
        ev.p3 = ev.p0 + rng.NextDouble(2.0, 15.0);                 // hi
        break;
      }
      case 3:
        ev.kind = PerturbationEvent::Kind::kDrift;
        ev.p0 = rng.NextDouble(0.2, 0.8);       // sigma
        ev.p1 = rng.NextDouble(50.0, 400.0);    // tau_ms
        break;
      case 4: {
        ev.kind = PerturbationEvent::Kind::kStep;
        const int num_steps = static_cast<int>(rng.NextInt(2, 4));
        double t = rng.NextDouble(0.0, 100.0);
        for (int step = 0; step < num_steps; ++step) {
          ev.steps.emplace_back(t, rng.NextDouble(1.0, 20.0));
          t += rng.NextDouble(30.0, 200.0);
        }
        break;
      }
      default:
        ev.kind = PerturbationEvent::Kind::kClear;
        break;
    }
    s.perturbations.push_back(std::move(ev));
  }

  // Failure schedule: at most num_evaluators - 1 crashes (someone must
  // survive to absorb the recovered work), on distinct evaluators.
  int num_failures = 0;
  const double failure_dice = rng.NextDouble();
  if (failure_dice > 0.85) {
    num_failures = 2;
  } else if (failure_dice > 0.50) {
    num_failures = 1;
  }
  num_failures = std::min(num_failures, s.num_evaluators - 1);
  std::vector<int> victims(static_cast<size_t>(s.num_evaluators));
  std::iota(victims.begin(), victims.end(), 0);
  for (int i = 0; i < num_failures; ++i) {
    const size_t pick = rng.NextBelow(victims.size());
    FailureEvent ev;
    ev.evaluator = victims[pick];
    victims.erase(victims.begin() + static_cast<long>(pick));
    ev.at_ms = rng.NextDouble(30.0, 500.0);
    s.failures.push_back(ev);
  }

  // Network shifts: 0-2 fabric-wide latency/bandwidth changes.
  const int num_shifts = static_cast<int>(rng.NextInt(0, 2));
  for (int i = 0; i < num_shifts; ++i) {
    LinkShiftEvent ev;
    ev.at_ms = rng.NextDouble(20.0, 400.0);
    ev.params.latency_ms = rng.NextDouble(0.1, 4.0);
    ev.params.bandwidth_bytes_per_ms = rng.NextDouble(2000.0, 20000.0);
    s.link_shifts.push_back(ev);
  }

  // Lossy-fabric extensions. Drawn UNCONDITIONALLY so both profiles
  // consume the same RNG stream (a seed means the same base scenario in
  // each); the standard profile simply discards the results.
  const double loss_rate = rng.NextDouble(0.01, 0.05);
  static constexpr double kHbIntervals[] = {2.5, 5.0, 10.0};
  const double hb_interval = kHbIntervals[rng.NextBelow(3)];
  std::vector<PartitionEvent> partitions;
  const int num_partitions = static_cast<int>(rng.NextInt(0, 2));
  for (int i = 0; i < num_partitions; ++i) {
    PartitionEvent ev;
    ev.at_ms = rng.NextDouble(30.0, 500.0);
    ev.duration_ms = rng.NextDouble(10.0, 120.0);
    ev.evaluator = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(s.num_evaluators)));
    partitions.push_back(ev);
  }
  std::vector<StallEvent> stalls;
  const int num_stalls = static_cast<int>(rng.NextInt(0, 2));
  for (int i = 0; i < num_stalls; ++i) {
    StallEvent ev;
    ev.at_ms = rng.NextDouble(30.0, 500.0);
    ev.duration_ms = rng.NextDouble(10.0, 120.0);
    ev.evaluator = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(s.num_evaluators)));
    stalls.push_back(ev);
  }

  // Flow-control extensions (D11). Tail draws, taken UNCONDITIONALLY for
  // every profile so the base scenario of a seed stays identical across
  // all four profiles; the legacy profiles simply discard the results.
  const int slow_victim = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(s.num_evaluators)));
  const double slow_factor = rng.NextDouble(8.0, 20.0);
  const double slow_at_ms = rng.NextDouble(20.0, 60.0);
  const size_t slow_budget_bytes =
      static_cast<size_t>(rng.NextInt(4, 8)) * 1024;
  const size_t squeeze_budget_bytes =
      static_cast<size_t>(rng.NextInt(8, 24)) * 1024;

  // Multi-query extensions (D12). Same unconditional-tail-draw rule. The
  // submission window [5, 25] ms closes before the earliest possible
  // failure/partition (30 ms), so every query deploys onto a fully-live
  // grid and the chaos then hits several running queries at once.
  const int num_extra_queries = static_cast<int>(rng.NextInt(1, 3));
  std::vector<ConcurrentQuery> extra_queries;
  for (int i = 0; i < num_extra_queries; ++i) {
    ConcurrentQuery q;
    q.kind = rng.NextBool(0.5) ? QueryKind::kQ1 : QueryKind::kQ2;
    q.submit_at_ms = rng.NextDouble(5.0, 25.0);
    extra_queries.push_back(q);
  }
  const size_t mq_budget_bytes =
      static_cast<size_t>(rng.NextInt(16, 48)) * 1024;

  // Coordinator-failover extensions (D14). Same unconditional-tail-draw
  // rule. The kill window [40, 220] ms opens after every query has
  // deployed and usually closes before the base query drains, so the
  // standby takes over with real in-flight state. The deadline is
  // deliberately generous — takeover plus a full retry fits comfortably —
  // so sweep queries never deadline-terminate (the termination path is
  // pinned by unit tests instead).
  const double coord_kill_at_ms = rng.NextDouble(40.0, 220.0);
  const double coord_deadline_ms = rng.NextDouble(30000.0, 60000.0);
  const int coord_extra_queries = static_cast<int>(rng.NextInt(0, 2));

  // Multi-tenant storm extensions (D16). Same unconditional-tail-draw
  // rule, appended after every earlier draw so all legacy profiles keep
  // their scenarios (and recorded golden traces) bit-identical.
  const int storm_tenants = static_cast<int>(rng.NextInt(2, 4));
  const double storm_rate_qps = rng.NextDouble(10.0, 25.0);
  const double storm_burst_multiplier = rng.NextDouble(2.0, 4.0);
  const double storm_horizon_ms = rng.NextDouble(400.0, 800.0);
  const double storm_deadline_ms = rng.NextDouble(4000.0, 8000.0);
  const int storm_queue_capacity = static_cast<int>(rng.NextInt(4, 10));
  const int storm_max_concurrent = static_cast<int>(rng.NextInt(2, 4));
  const int storm_per_tenant_cap = static_cast<int>(rng.NextInt(1, 2));
  const int storm_victim = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(s.num_evaluators)));
  const double storm_kill_at_ms = rng.NextDouble(80.0, 300.0);

  if (profile == ChaosProfile::kSlowConsumer) {
    // A single sustained node-wide CPU sag on one evaluator and nothing
    // else: no kills, no partitions, no stalls. The interesting dynamics
    // are the unbounded queue growth at the sagging consumer (FC off) vs
    // the credit gate holding producers back (FC on).
    s.failures.clear();
    s.partitions.clear();
    s.stalls.clear();
    s.perturbations.clear();
    PerturbationEvent sag;
    sag.at_ms = slow_at_ms;
    sag.evaluator = slow_victim;
    sag.kind = PerturbationEvent::Kind::kConstantFactor;
    sag.p0 = slow_factor;
    sag.node_wide = true;
    s.perturbations.push_back(sag);
    s.flow_control = true;
    s.memory_budget_bytes = slow_budget_bytes;
  } else if (profile == ChaosProfile::kMemorySqueeze) {
    // Standard chaos schedule, but every queue/buffer must live inside a
    // tight per-query budget.
    s.flow_control = true;
    s.memory_budget_bytes = squeeze_budget_bytes;
  } else if (profile == ChaosProfile::kMultiQuery) {
    // Standard chaos with several live queries on the same grid. Flow
    // control on with a per-query budget, so the bounded-memory invariant
    // is checked for every query independently.
    s.flow_control = true;
    s.memory_budget_bytes = mq_budget_bytes;
    s.extra_queries = std::move(extra_queries);
  } else if (profile == ChaosProfile::kCoordinatorKill) {
    // The only injected fault is the primary coordinator's crash:
    // evaluator kills are cleared so a kill-free reference run of the
    // same seed produces the exact rows the failover run must reproduce.
    s.failures.clear();
    s.coordinator_standby = true;
    s.coordinator_kill = true;
    s.coordinator_kill_at_ms = coord_kill_at_ms;
    s.deadline_ms = coord_deadline_ms;
    s.flow_control = true;
    s.memory_budget_bytes = mq_budget_bytes;
    if (extra_queries.size() > static_cast<size_t>(coord_extra_queries)) {
      extra_queries.resize(static_cast<size_t>(coord_extra_queries));
    }
    s.extra_queries = std::move(extra_queries);
  } else if (profile == ChaosProfile::kTenantStorm) {
    // Open-loop multi-tenant overload (D16): K tenants press a bounded
    // admission queue at burst rates while one evaluator crashes and the
    // detector recovers mid-storm. Small fixed datasets keep the per-seed
    // cost linear in the arrival count; seed diversity comes from the
    // rates, caps and kill schedule. Retrospective response throughout:
    // the mix includes stateful partitioned operators (join, aggregate).
    s.storm.seed = seed ^ 0x7E4A47ULL;
    s.storm.horizon_ms = storm_horizon_ms;
    s.storm.deadline_ms = storm_deadline_ms;
    s.storm.max_queries = 300;
    for (int i = 0; i < storm_tenants; ++i) {
      TenantSpec tenant;
      tenant.name = StrCat("t", i);
      tenant.arrival_rate_qps = storm_rate_qps;
      if (i == 0) {
        // The heaviest tenant: periodic bursts on top of the base rate —
        // the shedding target when sustained queue pressure hits.
        tenant.burst_period_ms = storm_horizon_ms / 3.0;
        tenant.burst_duty = 0.4;
        tenant.burst_multiplier = storm_burst_multiplier;
      }
      tenant.weight_q1 = 1.0;
      tenant.weight_q2 = 0.5;
      tenant.weight_scan_agg = 0.5;
      s.storm.tenants.push_back(std::move(tenant));
    }
    s.admission.enabled = true;
    s.admission.queue_capacity = static_cast<size_t>(storm_queue_capacity);
    s.admission.max_concurrent_queries = storm_max_concurrent;
    s.admission.per_tenant_inflight_cap = storm_per_tenant_cap;
    // Each admitted query's share of the global pool lands near the
    // per-query budget.
    s.admission.global_memory_budget_bytes =
        static_cast<uint64_t>(mq_budget_bytes) *
        static_cast<uint64_t>(storm_max_concurrent);
    s.sequences = 80;
    s.interactions = 120;
    s.sequence_length = 16;
    s.response = ResponseType::kRetrospective;
    s.perturbations.clear();
    s.link_shifts.clear();
    s.failures.clear();
    FailureEvent kill;
    kill.evaluator = storm_victim;
    kill.at_ms = storm_kill_at_ms;
    s.failures.push_back(kill);
    s.flow_control = true;
    s.memory_budget_bytes = mq_budget_bytes;
  }

  if (profile == ChaosProfile::kLossy) {
    s.loss_rate = loss_rate;
    s.heartbeat_interval_ms = hb_interval;
    s.partitions = std::move(partitions);
    s.stalls = std::move(stalls);

    // Survivor budget: a silence window long enough to be confirmed is a
    // potential false kill. Real crashes plus false kills must leave at
    // least one evaluator standing (the Responder needs a recovery
    // target; the monitor's last-survivor guard is only a backstop).
    // Deterministic post-processing, like the Q2 response override above.
    DetectConfig detect;
    detect.heartbeat_interval_ms = hb_interval;
    // The FASTEST possible confirmation: the EWMA suspect timeout clamps
    // at min_suspect_intervals, so a silence of (min_suspect + confirm)
    // intervals can already kill. Every window that merely COULD reach
    // that horizon must charge budget — observed silence exceeds the
    // window itself by up to a beat phase, check granularity and a couple
    // of loss-eaten beats.
    const double confirmable_ms =
        (detect.min_suspect_intervals + detect.confirm_intervals) *
        hb_interval;
    std::set<int> crashed;
    for (const FailureEvent& ev : s.failures) crashed.insert(ev.evaluator);
    std::set<int> budgeted;
    int budget = s.num_evaluators - 1 - static_cast<int>(crashed.size());
    auto ration = [&](int evaluator, double* duration_ms) {
      if (crashed.count(evaluator) > 0) return;  // already dead anyway
      if (budgeted.count(evaluator) > 0) return;  // budget already charged
      if (budget > 0) {
        --budget;
        budgeted.insert(evaluator);
      } else {
        // Shorten well below the confirmation horizon: still suspicion
        // pressure on the detector, but never a kill — even if loss eats
        // the two beats flanking the window.
        *duration_ms = std::min(*duration_ms, 0.3 * confirmable_ms);
      }
    };
    for (PartitionEvent& ev : s.partitions) {
      ration(ev.evaluator, &ev.duration_ms);
    }
    for (StallEvent& ev : s.stalls) ration(ev.evaluator, &ev.duration_ms);
  }

  return s;
}

std::span<const ProfileInfo> Profiles() { return kProfiles; }

const ProfileInfo& GetProfileInfo(ChaosProfile profile) {
  for (const ProfileInfo& info : kProfiles) {
    if (info.profile == profile) return info;
  }
  return kProfiles[0];
}

std::string ReproCommand(uint64_t seed, ChaosProfile profile,
                         size_t batch_size) {
  const std::string_view flag = GetProfileInfo(profile).flag;
  return StrCat("chaos_repro --seed=", seed, flag.empty() ? "" : " ", flag,
                batch_size != 1 ? StrCat(" --batch=", batch_size) : "");
}

}  // namespace chaos
}  // namespace gqp
