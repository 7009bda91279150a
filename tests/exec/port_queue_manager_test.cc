// PortQueueManager unit tests, driven through recording hooks: byte
// accounting on enqueue/release, batched vs immediate CreditGrant
// emission and its deterministic flush order, the fenced-producer grant
// fence, purge scoping by round and bucket, and two-phase port selection.

#include "exec/port_queue_manager.h"

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace gqp {
namespace {

Tuple KeyTuple(const std::string& key) {
  static SchemaPtr schema = MakeSchema({{"orf", DataType::kString}});
  return Tuple(schema, {Value(key)});
}

size_t WireBytes(const std::string& key) {
  return RoutedTupleWireBytes(KeyTuple(key).WireSize());
}

struct SentMessage {
  Address to;
  PayloadPtr payload;
};

/// A consumer-side queue manager on a one-node simulator. Grants are sent
/// through GridNode::SubmitWork, so tests run the simulator before
/// asserting on `sent`.
struct Harness {
  explicit Harness(uint64_t credit_window_bytes = 1000) {
    config.flow_control_enabled = true;
    config.credit_window_bytes = credit_window_bytes;
    config.credit_grant_fraction = 0.25;
    PortQueueManager::Hooks hooks;
    hooks.send_to = [this](const Address& to, PayloadPtr payload) {
      sent.push_back({to, std::move(payload)});
      return Status::OK();
    };
    hooks.is_lost = [this](int, const std::string& key) {
      return lost.count(key) > 0;
    };
    queues = std::make_unique<PortQueueManager>(&node, &sim, &config,
                                                SubplanId{1, 2, 0}, &adaptivity,
                                                &stats, std::move(hooks));
  }

  /// Enqueues `keys` as one batch from `producer` with per-tuple seqs
  /// starting at `first_seq`.
  void Enqueue(int port, const std::string& producer, uint64_t round,
               const std::vector<std::pair<std::string, int>>& key_buckets,
               uint64_t first_seq = 0) {
    std::vector<RoutedTuple> tuples;
    uint64_t seq = first_seq;
    for (const auto& [key, bucket] : key_buckets) {
      RoutedTuple rt;
      rt.seq = seq++;
      rt.bucket = bucket;
      rt.tuple = KeyTuple(key);
      tuples.push_back(std::move(rt));
    }
    queues->EnqueueBatch(port, producer,
                         TupleBatchPayload(/*exchange_id=*/7, SubplanId{1, 0, 0},
                                           port, /*resend=*/false, round,
                                           std::move(tuples)));
  }

  std::vector<const CreditGrantPayload*> Grants() {
    std::vector<const CreditGrantPayload*> out;
    for (const SentMessage& m : sent) {
      if (const auto* g =
              dynamic_cast<const CreditGrantPayload*>(m.payload.get())) {
        out.push_back(g);
      }
    }
    return out;
  }

  Simulator sim;
  GridNode node{&sim, 0, "consumer"};
  ExecConfig config;
  AdaptivityWiring adaptivity;  // med unset: no pressure emission
  FragmentStats stats;
  std::set<std::string> lost;
  std::vector<SentMessage> sent;
  std::unique_ptr<PortQueueManager> queues;
};

TEST(PortQueueManagerTest, EnqueueChargesBytesAndReleaseDrainsThem) {
  Harness h;
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "p", Address{1, "p"}, 7);

  h.Enqueue(0, "p", 0, {{"aa", 0}, {"bb", 1}, {"cc", 2}});
  const size_t wb = WireBytes("aa");
  EXPECT_EQ(h.queues->held_bytes(0), 3 * wb);
  EXPECT_EQ(h.queues->QueuedTuples(0), 3u);
  EXPECT_EQ(h.stats.queued_bytes_peak, 3 * wb);

  const QueuedTuple qt = h.queues->PopFront(0);
  EXPECT_EQ(qt.wire_bytes, wb);
  EXPECT_EQ(qt.producer_key, "p");
  h.queues->ReleaseCredit(0, "p", qt.wire_bytes);
  EXPECT_EQ(h.queues->held_bytes(0), 2 * wb);
  // Peak is monotone.
  EXPECT_EQ(h.stats.queued_bytes_peak, 3 * wb);
}

TEST(PortQueueManagerTest, SmallReleasesBatchUntilFlushed) {
  Harness h(/*credit_window_bytes=*/1000);  // threshold = 250
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "p", Address{1, "p"}, 7);
  const size_t wb = WireBytes("aa");
  ASSERT_LT(wb, h.queues->CreditGrantThreshold());

  h.Enqueue(0, "p", 0, {{"aa", 0}});
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "p", wb);
  h.sim.Run();
  EXPECT_TRUE(h.Grants().empty()) << "sub-threshold release sent a grant";

  // The idle-time flush delivers it so the producer can never starve.
  h.queues->FlushCreditGrants();
  h.sim.Run();
  auto grants = h.Grants();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0]->released_bytes(), wb);  // cumulative counter
  EXPECT_EQ(grants[0]->exchange_id(), 7);
  EXPECT_EQ(h.stats.credit_grants_sent, 1u);

  // Nothing pending afterwards: a second flush is a no-op.
  h.queues->FlushCreditGrants();
  h.sim.Run();
  EXPECT_EQ(h.Grants().size(), 1u);
}

TEST(PortQueueManagerTest, ThresholdCrossingSendsGrantImmediately) {
  // Window sized so the grant threshold sits between one and two tuples.
  const size_t wb = WireBytes("aa");
  Harness h(/*credit_window_bytes=*/4 * (wb + 1));
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "p", Address{1, "p"}, 7);
  ASSERT_LT(wb, h.queues->CreditGrantThreshold());
  ASSERT_GE(2 * wb, h.queues->CreditGrantThreshold());

  h.Enqueue(0, "p", 0, {{"aa", 0}, {"aa", 1}});
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "p", wb);
  h.sim.Run();
  EXPECT_TRUE(h.Grants().empty());
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "p", wb);  // crosses the threshold
  h.sim.Run();
  auto grants = h.Grants();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0]->released_bytes(), 2 * wb);
}

TEST(PortQueueManagerTest, FlushOrderIsSortedByProducerKey) {
  Harness h;
  h.queues->AddPort(2);
  h.queues->RegisterProducer(0, "q1.f0.i1", Address{2, "q1.f0.i1"}, 7);
  h.queues->RegisterProducer(0, "q1.f0.i0", Address{1, "q1.f0.i0"}, 7);
  const size_t wb = WireBytes("aa");

  // Release in reverse key order; the flush must still go out sorted so
  // replayed runs emit an identical event sequence.
  h.Enqueue(0, "q1.f0.i1", 0, {{"aa", 0}});
  h.Enqueue(0, "q1.f0.i0", 0, {{"aa", 0}});
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "q1.f0.i1", wb);
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "q1.f0.i0", wb);
  h.queues->FlushCreditGrants();
  h.sim.Run();

  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[0].to.service, "q1.f0.i0");
  EXPECT_EQ(h.sent[1].to.service, "q1.f0.i1");
}

TEST(PortQueueManagerTest, FencedProducerGetsNoGrants) {
  Harness h(/*credit_window_bytes=*/100);
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "dead", Address{1, "dead"}, 7);
  const size_t wb = WireBytes("aa");

  h.Enqueue(0, "dead", 0, {{"aa", 0}, {"aa", 1}});
  h.lost.insert("dead");
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "dead", wb);
  h.queues->PopFront(0);
  h.queues->ReleaseCredit(0, "dead", wb);  // crosses the threshold
  h.queues->FlushCreditGrants();
  h.sim.Run();
  EXPECT_TRUE(h.Grants().empty());
  EXPECT_EQ(h.stats.credit_grants_sent, 0u);
}

TEST(PortQueueManagerTest, PurgeScopesByRoundBucketAndProducer) {
  Harness h;
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "p", Address{1, "p"}, 7);
  h.queues->RegisterProducer(0, "other", Address{2, "other"}, 7);
  const size_t wb = WireBytes("aa");

  h.Enqueue(0, "p", /*round=*/0, {{"aa", 1}, {"aa", 2}}, /*first_seq=*/10);
  h.Enqueue(0, "p", /*round=*/1, {{"aa", 1}}, /*first_seq=*/12);
  h.Enqueue(0, "other", /*round=*/0, {{"aa", 1}}, /*first_seq=*/50);

  // Bucket-scoped purge for round 1: only the producer's round-0 tuple in
  // the lost bucket goes; the round-1 tuple was routed by the new map and
  // the other producer is untouched.
  auto result = h.queues->Purge(0, "p", /*round=*/1, /*unconditional=*/false,
                                /*buckets_lost=*/{1});
  EXPECT_EQ(result.discarded, 1u);
  EXPECT_EQ(result.credit_bytes, wb);
  EXPECT_EQ(result.seqs, (std::vector<uint64_t>{10}));
  EXPECT_EQ(h.queues->QueuedTuples(0), 3u);

  // Unconditional purge (recovery) sweeps every remaining round-0 tuple
  // of the producer regardless of bucket.
  result = h.queues->Purge(0, "p", /*round=*/1, /*unconditional=*/true, {});
  EXPECT_EQ(result.discarded, 1u);
  EXPECT_EQ(result.seqs, (std::vector<uint64_t>{11}));
  EXPECT_EQ(h.queues->QueuedTuples(0), 2u);
}

TEST(PortQueueManagerTest, PurgeReachesParkedTuples) {
  Harness h;
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "p", Address{1, "p"}, 7);

  h.Enqueue(0, "p", 0, {{"aa", 3}, {"aa", 4}}, /*first_seq=*/20);
  h.queues->ParkBlocked(0, [](int bucket) { return bucket == 3; });
  EXPECT_EQ(h.queues->parked_size(0), 1u);
  EXPECT_EQ(h.queues->queue_size(0), 1u);

  auto result = h.queues->Purge(0, "p", /*round=*/1, /*unconditional=*/false,
                                /*buckets_lost=*/{3});
  EXPECT_EQ(result.discarded, 1u);
  EXPECT_EQ(h.queues->parked_size(0), 0u);

  h.queues->Unpark([](int) { return false; });
  EXPECT_EQ(h.queues->queue_size(0), 1u);
}

TEST(PortQueueManagerTest, PurgeAndUnparkKeepSurvivorOrder) {
  Harness h;
  h.queues->AddPort(1);
  h.queues->RegisterProducer(0, "p", Address{1, "p"}, 7);

  // Seqs 30..37; buckets 1, 2 and 4 are blocked, so the front five park
  // and the queue starts at 35.
  h.Enqueue(0, "p", 0,
            {{"aa", 1}, {"aa", 2}, {"aa", 4}, {"aa", 1}, {"aa", 2},
             {"aa", 3}, {"aa", 4}, {"aa", 1}},
            /*first_seq=*/30);
  h.queues->ParkBlocked(0, [](int b) { return b == 1 || b == 2 || b == 4; });
  h.Enqueue(0, "p", 0, {{"aa", 2}, {"aa", 3}}, /*first_seq=*/38);
  ASSERT_EQ(h.queues->parked_size(0), 5u);
  ASSERT_EQ(h.queues->queue_size(0), 5u);

  auto result = h.queues->Purge(0, "p", /*round=*/1, /*unconditional=*/false,
                                /*buckets_lost=*/{2});
  EXPECT_EQ(result.seqs, (std::vector<uint64_t>{38, 31, 34}));

  // Bucket 1 clears, bucket 4 stays blocked: 30 and 33 join the queue
  // behind it in parked order, 32 stays parked.
  h.queues->Unpark([](int b) { return b == 4; });
  EXPECT_EQ(h.queues->parked_size(0), 1u);
  h.queues->Unpark([](int) { return false; });

  std::vector<uint64_t> order;
  while (!h.queues->QueueEmpty(0)) {
    order.push_back(h.queues->PopFront(0).rt.seq);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{35, 36, 37, 39, 30, 33, 32}));
}

TEST(PortQueueManagerTest, PickRunnablePortDrainsEarlierPortsFirst) {
  Harness h;
  h.queues->AddPort(1);  // build
  h.queues->AddPort(1);  // probe
  h.queues->RegisterProducer(0, "b", Address{1, "b"}, 7);
  h.queues->RegisterProducer(1, "p", Address{2, "p"}, 8);

  std::set<int> eos_done;
  auto eos = [&eos_done](int port) { return eos_done.count(port) > 0; };

  h.Enqueue(1, "p", 0, {{"aa", 0}});
  // Probe queued, build still open: nothing may run.
  EXPECT_EQ(h.queues->PickRunnablePort(eos), -1);

  h.Enqueue(0, "b", 0, {{"aa", 0}});
  // Build tuples always run first.
  EXPECT_EQ(h.queues->PickRunnablePort(eos), 0);

  h.queues->PopFront(0);
  EXPECT_EQ(h.queues->PickRunnablePort(eos), -1);  // build empty, no EOS yet
  eos_done.insert(0);
  EXPECT_EQ(h.queues->PickRunnablePort(eos), 1);
}

}  // namespace
}  // namespace gqp
