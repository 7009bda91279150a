#include "chaos/invariants.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "monitor/monitoring_event_detector.h"
#include "storage/datagen.h"

namespace gqp {
namespace chaos {

namespace {

/// First few elements of a container, for violation messages.
template <typename Container>
std::string Preview(const Container& items, size_t limit = 8) {
  std::string out = "[";
  size_t shown = 0;
  for (const auto& item : items) {
    if (shown == limit) {
      out += StrCat(", ... (", items.size(), " total)");
      break;
    }
    if (shown > 0) out += ", ";
    out += StrCat(item);
    ++shown;
  }
  out += "]";
  return out;
}

}  // namespace

std::multiset<std::string> OracleRows(QueryKind query, const Table& sequences,
                                      const Table& interactions) {
  std::multiset<std::string> oracle;
  if (query == QueryKind::kQ1) {
    const SchemaPtr schema = MakeSchema({{"e", DataType::kDouble}});
    for (const Tuple& row : sequences.rows()) {
      oracle.insert(
          Tuple(schema, {Value(ShannonEntropy(row[1].AsString()))})
              .ToString());
    }
    return oracle;
  }
  if (query == QueryKind::kScanAgg) {
    // SA: select i.orf1, count(*) from interactions i group by i.orf1.
    const SchemaPtr schema = MakeSchema(
        {{"orf1", DataType::kString}, {"count", DataType::kInt64}});
    std::map<std::string, int64_t> counts;
    for (const Tuple& row : interactions.rows()) ++counts[row[0].AsString()];
    for (const auto& [orf, count] : counts) {
      oracle.insert(
          Tuple(schema, {Value(orf), Value(count)}).ToString());
    }
    return oracle;
  }
  // Q2: select i.orf2 from sequences p, interactions i where i.orf1 = p.orf.
  std::multiset<std::string> orfs;
  for (const Tuple& row : sequences.rows()) orfs.insert(row[0].AsString());
  for (const Tuple& row : interactions.rows()) {
    const size_t matches = orfs.count(row[0].AsString());
    for (size_t i = 0; i < matches; ++i) {
      oracle.insert(StrCat("[", row[1].AsString(), "]"));
    }
  }
  return oracle;
}

void CheckAggregateResults(const Table& interactions,
                           const std::vector<Tuple>& actual,
                           bool failures_injected, uint64_t resent_tuples,
                           std::vector<std::string>* violations) {
  std::map<std::string, int64_t> want;
  for (const Tuple& row : interactions.rows()) ++want[row[0].AsString()];
  std::map<std::string, int64_t> got;
  for (const Tuple& row : actual) got[row[0].AsString()] += row[1].AsInt64();

  std::vector<std::string> missing, unexpected;
  for (const auto& [orf, count] : want) {
    if (got.find(orf) == got.end()) missing.push_back(orf);
  }
  for (const auto& [orf, count] : got) {
    if (want.find(orf) == want.end()) unexpected.push_back(orf);
  }
  if (!missing.empty() || !unexpected.empty()) {
    violations->push_back(StrCat(
        "[results] aggregate group set diverged: missing=", Preview(missing),
        " unexpected=", Preview(unexpected)));
    return;
  }
  if (!failures_injected && resent_tuples == 0) {
    // Exact run: every count must match the oracle precisely.
    for (const auto& [orf, count] : want) {
      if (got[orf] != count) {
        violations->push_back(StrCat("[results] aggregate count for group '",
                                     orf, "' is ", got[orf], ", oracle says ",
                                     count, " (no replays to excuse it)"));
        return;
      }
    }
    return;
  }
  // At-least-once run: replayed inputs can only INFLATE counts, and the
  // total inflation across groups is bounded by the replay count.
  int64_t inflation = 0;
  for (const auto& [orf, count] : want) {
    if (got[orf] < count) {
      violations->push_back(
          StrCat("[results] aggregate count for group '", orf, "' is ",
                 got[orf], ", below the oracle's ", count,
                 " (at-least-once must never lose inputs)"));
      return;
    }
    inflation += got[orf] - count;
  }
  if (inflation > static_cast<int64_t>(resent_tuples)) {
    violations->push_back(
        StrCat("[results] aggregate counts inflated by ", inflation,
               " but only ", resent_tuples, " tuples were replayed"));
  }
}

size_t MaxOutputFanout(QueryKind query, const Table& sequences,
                       const Table& interactions) {
  // Q1 maps one input to one output; a replayed aggregate input touches
  // exactly one group row.
  if (query == QueryKind::kQ1 || query == QueryKind::kScanAgg) return 1;
  // A replayed probe (interaction) tuple re-emits one row per build tuple
  // sharing its key; a replayed build (sequence) tuple can at worst
  // re-enable every interaction row of its orf.
  std::unordered_map<std::string, size_t> seq_by_orf;
  for (const Tuple& row : sequences.rows()) ++seq_by_orf[row[0].AsString()];
  std::unordered_map<std::string, size_t> inter_by_orf;
  for (const Tuple& row : interactions.rows()) {
    ++inter_by_orf[row[0].AsString()];
  }
  size_t fanout = 1;
  for (const auto& [orf, count] : seq_by_orf) fanout = std::max(fanout, count);
  for (const auto& [orf, count] : inter_by_orf) {
    fanout = std::max(fanout, count);
  }
  return fanout;
}

void CheckResults(const std::multiset<std::string>& oracle,
                  const std::vector<Tuple>& actual, bool failures_injected,
                  uint64_t resent_tuples, size_t max_fanout,
                  std::vector<std::string>* violations) {
  std::vector<std::string> got;
  got.reserve(actual.size());
  for (const Tuple& t : actual) got.push_back(t.ToString());
  std::sort(got.begin(), got.end());

  // One merged walk over the two sorted sequences visits each distinct row
  // once, in order, with its wanted and delivered counts. Nothing may ever
  // be lost, failures or not. Extras: exact equality without failures;
  // with failures, at most the replayed tuples times their worst-case
  // fanout.
  std::vector<std::string> missing;
  std::vector<std::string> extra;
  auto want_it = oracle.begin();
  auto have_it = got.begin();
  while (want_it != oracle.end() || have_it != got.end()) {
    const std::string& row =
        have_it == got.end() ||
                (want_it != oracle.end() && *want_it < *have_it)
            ? *want_it
            : *have_it;
    size_t want = 0;
    for (; want_it != oracle.end() && *want_it == row; ++want_it) ++want;
    size_t have = 0;
    for (; have_it != got.end() && *have_it == row; ++have_it) ++have;
    if (have < want) {
      missing.push_back(StrCat(row, " (want ", want, ", got ", have, ")"));
    } else if (have > want) {
      extra.push_back(StrCat(row, " (want ", want, ", got ", have, ")"));
    }
  }
  if (!missing.empty()) {
    violations->push_back(StrCat("[results] lost result rows: ",
                                 Preview(missing)));
  }

  const uint64_t budget =
      failures_injected ? resent_tuples * static_cast<uint64_t>(max_fanout)
                        : 0;
  if (got.size() > oracle.size() + budget) {
    violations->push_back(
        StrCat("[results] ", got.size() - oracle.size(),
               " duplicate rows exceed the at-least-once budget of ", budget,
               " (resent=", resent_tuples, ", fanout=", max_fanout,
               "): ", Preview(extra)));
  } else if (!failures_injected && !extra.empty()) {
    violations->push_back(StrCat(
        "[results] duplicated rows without any failure injected "
        "(redistribution must be exactly-once): ",
        Preview(extra)));
  }
}

void CheckConservation(GridSetup* grid, int query_id,
                       const std::set<HostId>& reported_failures,
                       std::vector<std::string>* violations) {
  // Gather every fragment instance of the query, hosts in id order.
  struct Instance {
    FragmentExecutor* exec = nullptr;
    /// Machine still running (its counted sends were delivered).
    bool alive = false;
    /// Alive AND never reported failed — only these instances' protocol
    /// bookkeeping is required to balance; a falsely-suspected one was
    /// fenced mid-flight and recovery rewrote who owns its work.
    bool live = false;
  };
  std::map<std::string, Instance> instances;
  const int num_hosts = grid->num_hosts();
  for (int host = 0; host < num_hosts; ++host) {
    Gqes* gqes = grid->gqes_on(static_cast<HostId>(host));
    if (gqes == nullptr) continue;
    for (FragmentExecutor* exec : gqes->Executors()) {
      if (exec->plan().id.query != query_id) continue;
      const bool alive = !exec->node()->dead();
      instances[exec->plan().id.ToString()] = Instance{
          exec, alive,
          alive && reported_failures.count(static_cast<HostId>(host)) == 0};
    }
  }

  // Producer-side: routing conservation, log drain, and the expected
  // delivery count per consumer instance.
  std::map<std::string, uint64_t> expected_min;
  std::map<std::string, uint64_t> expected_max;
  for (const auto& [key, inst] : instances) {
    const ExchangeProducer* producer = inst.exec->producer();
    if (producer == nullptr) continue;
    const ProducerStats& ps = producer->stats();

    uint64_t routed = 0;
    for (const uint64_t n : ps.tuples_to_consumer) routed += n;
    if (inst.live && routed != ps.tuples_offered + ps.resent_tuples) {
      violations->push_back(StrCat(
          "[conservation] producer ", key, ": routed ", routed,
          " != offered ", ps.tuples_offered, " + resent ", ps.resent_tuples));
    }

    const RecoveryLogStats& ls = producer->log().stats();
    if (inst.live && ls.appended > 0 &&
        ls.appended != ps.tuples_offered + ps.resent_tuples) {
      violations->push_back(StrCat(
          "[conservation] producer ", key, ": recovery log appended ",
          ls.appended, " != offered ", ps.tuples_offered, " + resent ",
          ps.resent_tuples));
    }
    if (inst.live && producer->eos_sent() && !producer->log().empty()) {
      // Entries whose consumer died UNREPORTED (e.g. a crash after the
      // detector deactivated) are exempt: their acks were abandoned with
      // the host and the retained copy is exactly the at-least-once
      // insurance the log exists for. Entries owned by a protocol-live
      // consumer are genuinely stranded — the transport guarantees their
      // acks' delivery.
      std::vector<uint64_t> stranded;
      for (const auto& [seq, consumer] : producer->log().PendingConsumers()) {
        bool consumer_live = true;
        if (inst.exec->plan().output.has_value() && consumer >= 0) {
          const auto& outs = inst.exec->plan().output->consumers;
          if (static_cast<size_t>(consumer) < outs.size()) {
            const auto cit = instances.find(outs[consumer].id.ToString());
            consumer_live = cit == instances.end() || cit->second.live;
          }
        }
        if (consumer_live) stranded.push_back(seq);
      }
      if (!stranded.empty()) {
        violations->push_back(StrCat(
            "[conservation] producer ", key, ": ", stranded.size(),
            " tuples stranded in the recovery log after completion, seqs ",
            Preview(stranded)));
      }
    }

    if (!inst.exec->plan().output.has_value()) continue;
    const auto& consumers = inst.exec->plan().output->consumers;
    for (size_t c = 0;
         c < consumers.size() && c < ps.tuples_sent_to_consumer.size(); ++c) {
      // An alive producer's counted sends are guaranteed delivered (the
      // reliable transport retransmits until acked; loss-free raw sends
      // always arrive); a dead one's may have evaporated mid-flight.
      if (inst.alive) {
        expected_min[consumers[c].id.ToString()] +=
            ps.tuples_sent_to_consumer[c];
      }
      expected_max[consumers[c].id.ToString()] +=
          ps.tuples_sent_to_consumer[c];
    }
  }

  // Consumer-side: every tuple sent to a surviving consumer arrived, and
  // no sequence number was processed by two surviving consumers.
  std::map<std::string, std::map<uint64_t, int>> processed_by_producer;
  for (const auto& [key, inst] : instances) {
    if (!inst.live) continue;
    const auto lo_it = expected_min.find(key);
    const auto hi_it = expected_max.find(key);
    const uint64_t lo = lo_it == expected_min.end() ? 0 : lo_it->second;
    const uint64_t hi = hi_it == expected_max.end() ? 0 : hi_it->second;
    const uint64_t received = inst.exec->stats().tuples_received;
    if (received < lo || received > hi) {
      violations->push_back(StrCat(
          "[conservation] consumer ", key, ": received ", received,
          " tuples but producers sent ", lo == hi ? StrCat(lo)
                                                  : StrCat(lo, "..", hi)));
    }
    const size_t num_ports = inst.exec->plan().inputs.size();
    for (size_t port = 0; port < num_ports; ++port) {
      for (const auto& [producer_key, seqs] :
           inst.exec->ProcessedSeqs(static_cast<int>(port))) {
        for (const uint64_t seq : seqs) {
          const int count = ++processed_by_producer[producer_key][seq];
          if (count == 2) {
            violations->push_back(StrCat(
                "[conservation] seq ", seq, " of producer ", producer_key,
                " processed by two surviving consumers"));
          }
        }
      }
    }
  }
}

void CheckMonitoring(GridSetup* grid, int query_id,
                     const QueryStatsSnapshot& stats,
                     std::vector<std::string>* violations) {
  uint64_t m1_sent = 0;
  uint64_t m2_sent = 0;
  const int num_hosts = grid->num_hosts();
  for (int host = 0; host < num_hosts; ++host) {
    Gqes* gqes = grid->gqes_on(static_cast<HostId>(host));
    if (gqes == nullptr) continue;
    for (const FragmentExecutor* exec : gqes->Executors()) {
      if (exec->plan().id.query != query_id) continue;
      m1_sent += exec->stats().m1_sent;
      m2_sent += exec->stats().m2_sent;
    }
  }
  if (stats.raw_m1 != m1_sent || stats.raw_m2 != m2_sent) {
    violations->push_back(StrCat(
        "[monitoring] query ", query_id, " was credited raw_m1=", stats.raw_m1,
        " raw_m2=", stats.raw_m2, " but its executors sent ", m1_sent, " M1 and ",
        m2_sent, " M2 events"));
  }
}

void CheckMonitoringTotals(GridSetup* grid, uint64_t raw_m1, uint64_t raw_m2,
                           std::vector<std::string>* violations) {
  uint64_t m1_total = 0;
  uint64_t m2_total = 0;
  const int num_hosts = grid->num_hosts();
  for (int host = 0; host < num_hosts; ++host) {
    Gqes* gqes = grid->gqes_on(static_cast<HostId>(host));
    if (gqes == nullptr || gqes->med() == nullptr) continue;
    m1_total += gqes->med()->stats().raw_m1;
    m2_total += gqes->med()->stats().raw_m2;
  }
  if (raw_m1 != m1_total || raw_m2 != m2_total) {
    violations->push_back(StrCat(
        "[monitoring] per-query slices sum to raw_m1=", raw_m1,
        " raw_m2=", raw_m2, " but the MEDs counted ", m1_total, " M1 and ",
        m2_total, " M2 events"));
  }
}

void CheckBoundedMemory(GridSetup* grid, int query_id,
                        size_t max_tuple_wire_bytes, size_t max_fanout,
                        uint64_t dataset_wire_bytes,
                        std::vector<std::string>* violations) {
  const int num_hosts = grid->num_hosts();
  std::vector<FragmentExecutor*> execs;
  uint64_t total_recall_bytes = 0;
  for (int host = 0; host < num_hosts; ++host) {
    Gqes* gqes = grid->gqes_on(static_cast<HostId>(host));
    if (gqes == nullptr) continue;
    for (FragmentExecutor* exec : gqes->Executors()) {
      if (exec->plan().id.query != query_id) continue;
      execs.push_back(exec);
      if (exec->producer() != nullptr) {
        total_recall_bytes +=
            exec->producer()->credit().stats().total_recall_bytes;
      }
    }
  }

  for (FragmentExecutor* exec : execs) {
    const ExecConfig& config = exec->plan().config;
    if (!config.flow_control_enabled || config.credit_window_bytes == 0) {
      continue;
    }
    const std::string key = exec->plan().id.ToString();
    const uint64_t window = config.credit_window_bytes;
    // Overshoot of one gated driver step: the credit gate is consulted
    // before a step starts, and one step routes up to `max_fanout` outputs
    // per input tuple of its batch before the gate is seen again (D13).
    const uint64_t batch = std::max<uint64_t>(config.vector_batch_size, 1);
    const uint64_t slack = batch * static_cast<uint64_t>(max_fanout) *
                           (12 + max_tuple_wire_bytes);

    if (exec->producer() != nullptr) {
      const CreditLedgerStats& cs = exec->producer()->credit().stats();
      // Recall resends of successive rounds bypass the gate and may all be
      // in flight at once, so the whole cumulative recall traffic is
      // exempt — the gate only governs ordinary sends.
      const uint64_t bound = window + slack + cs.total_recall_bytes;
      if (cs.peak_outstanding_bytes > bound) {
        violations->push_back(StrCat(
            "[memory] producer ", key, ": peak outstanding credit ",
            cs.peak_outstanding_bytes, " bytes exceeds window ", window,
            " + slack ", slack, " + recall ", cs.total_recall_bytes));
      }
      const RecoveryLogStats& ls = exec->producer()->log().stats();
      const uint64_t log_cap =
          (static_cast<uint64_t>(max_fanout) + 2) * dataset_wire_bytes + 1024;
      if (ls.bytes_peak > log_cap) {
        violations->push_back(
            StrCat("[memory] producer ", key, ": recovery log peaked at ",
                   ls.bytes_peak, " bytes, over the dataset-derived cap ",
                   log_cap));
      }
    }

    size_t max_producers = 0;
    for (const InputWiring& input : exec->plan().inputs) {
      max_producers =
          std::max(max_producers, static_cast<size_t>(input.num_producers));
    }
    if (max_producers > 0) {
      const uint64_t bound =
          static_cast<uint64_t>(max_producers) * (window + slack) +
          total_recall_bytes;
      if (exec->stats().queued_bytes_peak > bound) {
        violations->push_back(StrCat(
            "[memory] consumer ", key, ": port held ",
            exec->stats().queued_bytes_peak, " bytes at peak, over ",
            max_producers, " producers x (window ", window, " + slack ",
            slack, ") + recall ", total_recall_bytes));
      }
    }
  }
}

void CheckDetection(const HeartbeatMonitor* monitor,
                    const ChaosScenario& scenario,
                    std::vector<std::string>* violations) {
  if (monitor == nullptr) return;
  const double budget_ms = monitor->MaxDetectionLatencyMs();
  for (const FailureEvent& ev : scenario.failures) {
    const HostId host = static_cast<HostId>(2 + ev.evaluator);
    // An idle detector confirms nothing, so the budget starts at the
    // crash or the next epoch start, and restarts in every epoch. The
    // first epoch that lasts the full budget sets the deadline; if none
    // does, the queries were done before the crash could be confirmed.
    std::optional<double> deadline;
    for (const HeartbeatMonitor::WatchWindow& w : monitor->windows()) {
      const double end = std::max(ev.at_ms, w.start_ms) + budget_ms;
      if (w.end_ms > end) {
        deadline = end;
        break;
      }
    }
    if (!deadline.has_value()) continue;
    // The first confirmation at or after the crash: an earlier one was a
    // false suspicion, later ones re-confirm the death in later epochs.
    const std::vector<SimTime>& confirms = monitor->ConfirmTimes(host);
    const auto confirmed =
        std::lower_bound(confirms.begin(), confirms.end(), ev.at_ms);
    if (confirmed != confirms.end() && *confirmed <= *deadline) continue;
    // The last-survivor guard withholds confirmation on purpose.
    if (monitor->ConfirmSuppressed(host)) continue;
    violations->push_back(StrCat(
        "[detection] evaluator ", ev.evaluator, " (host ", host,
        ") crashed at ", ev.at_ms, " ms but was ",
        confirmed != confirms.end() ? StrCat("confirmed at ", *confirmed)
                                    : std::string("never confirmed"),
        "; bound is ", *deadline, " ms (latency budget ", budget_ms,
        " ms)"));
  }
}

}  // namespace chaos
}  // namespace gqp
