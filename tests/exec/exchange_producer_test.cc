// Unit tests for the enhanced exchange producer, driven through fake
// hooks (no network): buffering, flushing, logging, acknowledgments, EOS
// deferral, and the retrospective state-move protocol.

#include "exec/exchange_producer.h"

#include <gtest/gtest.h>

namespace gqp {
namespace {

Tuple KeyTuple(const std::string& key) {
  static SchemaPtr schema = MakeSchema({{"orf", DataType::kString}});
  return Tuple(schema, {Value(key)});
}

struct SentMessage {
  int consumer;
  PayloadPtr payload;
};

/// A producer wired to instant, recording hooks.
struct Harness {
  explicit Harness(PolicyKind policy, int consumers = 2,
                   size_t buffer_tuples = 4) {
    OutputWiring wiring;
    wiring.desc.id = 7;
    wiring.desc.policy = policy;
    wiring.desc.key_col = 0;
    wiring.desc.num_buckets = 8;
    wiring.desc.consumer_port = 0;
    wiring.estimated_rows = 100;
    for (int c = 0; c < consumers; ++c) {
      SubplanId id{1, 2, c};
      wiring.consumers.push_back(
          ConsumerEndpoint{id, Address{static_cast<HostId>(2 + c),
                                       id.ToString()}});
      wiring.initial_weights.push_back(1.0 / consumers);
    }
    ExecConfig config;
    config.buffer_tuples = buffer_tuples;
    ExchangeProducer::Hooks hooks;
    hooks.send = [this](int idx, PayloadPtr payload) {
      sent.push_back({idx, std::move(payload)});
      return Status::OK();
    };
    hooks.submit_work = [](double, std::function<void()> done) {
      if (done) done();  // instant CPU
    };
    hooks.on_buffer_sent = [](int, double, size_t, size_t) {};
    hooks.on_round_done = [this](uint64_t round, bool applied) {
      outcomes.emplace_back(round, applied);
    };
    producer = std::make_unique<ExchangeProducer>(SubplanId{1, 0, 0}, wiring,
                                                  config, std::move(hooks));
    EXPECT_TRUE(producer->Open().ok());
  }

  /// Batches sent so far to one consumer.
  std::vector<const TupleBatchPayload*> BatchesTo(int consumer) {
    std::vector<const TupleBatchPayload*> out;
    for (const SentMessage& m : sent) {
      if (m.consumer != consumer) continue;
      if (const auto* batch = dynamic_cast<const TupleBatchPayload*>(
              m.payload.get())) {
        out.push_back(batch);
      }
    }
    return out;
  }

  template <typename T>
  std::vector<const T*> MessagesOfType() {
    std::vector<const T*> out;
    for (const SentMessage& m : sent) {
      if (const auto* p = dynamic_cast<const T*>(m.payload.get())) {
        out.push_back(p);
      }
    }
    return out;
  }

  std::vector<SentMessage> sent;
  std::vector<std::pair<uint64_t, bool>> outcomes;
  std::unique_ptr<ExchangeProducer> producer;
};

TEST(ExchangeProducerTest, BuffersUntilFull) {
  Harness h(PolicyKind::kWeightedRoundRobin, 2, 4);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  // 6 tuples alternate between 2 consumers: both buffers hold 3.
  EXPECT_TRUE(h.sent.empty());
  ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  // The 7th fills one buffer of 4 and flushes it.
  EXPECT_EQ(h.sent.size(), 1u);
  ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  EXPECT_EQ(h.sent.size(), 2u);
}

TEST(ExchangeProducerTest, SeqsAreSequential) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  EXPECT_EQ(*h.producer->Offer(KeyTuple("a")), 1u);
  EXPECT_EQ(*h.producer->Offer(KeyTuple("b")), 2u);
  EXPECT_EQ(*h.producer->Offer(KeyTuple("c")), 3u);
}

TEST(ExchangeProducerTest, LogHoldsUnacknowledged) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  EXPECT_EQ(h.producer->log_size(), 6u);
  h.producer->OnAck(AckPayload(7, SubplanId{1, 2, 0}, {1, 3, 5}));
  EXPECT_EQ(h.producer->log_size(), 3u);
}

TEST(ExchangeProducerTest, FinishInputFlushesAndSendsEos) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  ASSERT_TRUE(h.producer->FinishInput().ok());
  EXPECT_TRUE(h.producer->eos_sent());
  EXPECT_EQ(h.MessagesOfType<EosPayload>().size(), 2u);  // one per consumer
  // Offers after finish are rejected.
  EXPECT_TRUE(h.producer->Offer(KeyTuple("x")).status().IsFailedPrecondition());
}

TEST(ExchangeProducerTest, ProgressFraction) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  EXPECT_DOUBLE_EQ(h.producer->ProgressFraction(), 0.0);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  EXPECT_DOUBLE_EQ(h.producer->ProgressFraction(), 0.5);
  ASSERT_TRUE(h.producer->FinishInput().ok());
  EXPECT_DOUBLE_EQ(h.producer->ProgressFraction(), 1.0);
}

TEST(ExchangeProducerTest, ProspectiveRedistributeAppliesImmediately) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  RedistributeRequestPayload request(1, 2, {0.9, 0.1}, false);
  ASSERT_TRUE(h.producer->HandleRedistribute(request).ok());
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_TRUE(h.outcomes[0].second);
  EXPECT_FALSE(h.producer->round_in_flight());
  EXPECT_EQ(h.producer->policy()->weights(),
            (std::vector<double>{0.9, 0.1}));
}

TEST(ExchangeProducerTest, RetrospectiveWaitsForReplies) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  RedistributeRequestPayload request(1, 2, {1.0, 0.0}, true);
  ASSERT_TRUE(h.producer->HandleRedistribute(request).ok());
  EXPECT_TRUE(h.producer->round_in_flight());
  EXPECT_EQ(h.MessagesOfType<StateMoveRequestPayload>().size(), 2u);
  EXPECT_TRUE(h.outcomes.empty());

  // Consumer 0 processed seq 2; consumer 1 nothing.
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      1, 7, SubplanId{1, 2, 0}, {2}, {}, 1))
                  .ok());
  EXPECT_TRUE(h.producer->round_in_flight());
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      1, 7, SubplanId{1, 2, 1}, {}, {}, 2))
                  .ok());
  EXPECT_FALSE(h.producer->round_in_flight());
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_TRUE(h.outcomes[0].second);
  EXPECT_EQ(h.producer->stats().resent_tuples, 5u);  // 6 minus processed {2}
  // All resends target consumer 0 (weight 1.0).
  size_t resent_to_0 = 0;
  for (const auto* batch : h.BatchesTo(0)) {
    if (batch->resend()) resent_to_0 += batch->tuples().size();
  }
  EXPECT_EQ(resent_to_0, 5u);
  // RestoreComplete markers follow the resends.
  EXPECT_EQ(h.MessagesOfType<RestoreCompletePayload>().size(), 2u);
}

TEST(ExchangeProducerTest, EosDeferredDuringRetrospectiveRound) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  RedistributeRequestPayload request(1, 2, {1.0, 0.0}, true);
  ASSERT_TRUE(h.producer->HandleRedistribute(request).ok());
  ASSERT_TRUE(h.producer->FinishInput().ok());
  EXPECT_FALSE(h.producer->eos_sent());  // deferred behind the round
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      1, 7, SubplanId{1, 2, 0}, {}, {}, 0))
                  .ok());
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      1, 7, SubplanId{1, 2, 1}, {}, {}, 1))
                  .ok());
  EXPECT_TRUE(h.producer->eos_sent());
}

TEST(ExchangeProducerTest, RejectsRoundWhenDoneAndLogEmpty) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  ASSERT_TRUE(h.producer->FinishInput().ok());
  h.producer->OnAck(AckPayload(7, SubplanId{1, 2, 0}, {1}));
  ASSERT_EQ(h.producer->log_size(), 0u);
  RedistributeRequestPayload request(1, 2, {1.0, 0.0}, true);
  ASSERT_TRUE(h.producer->HandleRedistribute(request).ok());
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_FALSE(h.outcomes[0].second);  // rejected: nothing to move
}

TEST(ExchangeProducerTest, HashRetrospectiveMovesOnlyAffectedBuckets) {
  Harness h(PolicyKind::kHashBuckets, 2, 100);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("K" + std::to_string(i))).ok());
  }
  RedistributeRequestPayload request(1, 2, {0.25, 0.75}, true);
  ASSERT_TRUE(h.producer->HandleRedistribute(request).ok());
  // Only the shrinking consumer (0) is asked to purge; the gainer just
  // parks, so exactly one reply is awaited.
  auto moves = h.MessagesOfType<StateMoveRequestPayload>();
  bool saw_loser = false;
  for (const auto* m : moves) {
    if (!m->buckets_lost().empty()) saw_loser = true;
    EXPECT_FALSE(m->purge_all());
  }
  EXPECT_TRUE(saw_loser);
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      1, 7, SubplanId{1, 2, 0}, {}, {}, 0))
                  .ok());
  EXPECT_FALSE(h.producer->round_in_flight());
}

TEST(ExchangeProducerTest, DeadConsumerRecoveredWithoutReply) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  const size_t sent_before = h.sent.size();
  // Consumer 1 crashed: recovery round with only consumer 0 replying.
  RedistributeRequestPayload request(1, 2, {1.0, 0.0}, true, {1});
  ASSERT_TRUE(h.producer->HandleRedistribute(request).ok());
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      1, 7, SubplanId{1, 2, 0}, {1, 3}, {}, 0))
                  .ok());
  EXPECT_FALSE(h.producer->round_in_flight());
  // 8 offered - 2 processed at the survivor = 6 recovered.
  EXPECT_EQ(h.producer->stats().resent_tuples, 6u);
  // Nothing further was sent to the dead consumer.
  for (size_t i = sent_before; i < h.sent.size(); ++i) {
    EXPECT_NE(h.sent[i].consumer, 1);
  }
}

/// Completes a purge_all round on a two-consumer round-robin producer
/// with the given replies; every resend goes to consumer 0.
void RunRound(Harness* h, uint64_t round, std::vector<uint64_t> processed0,
              std::vector<uint64_t> retained0,
              std::vector<uint64_t> processed1 = {}) {
  RedistributeRequestPayload request(round, 2, {1.0, 0.0}, true);
  ASSERT_TRUE(h->producer->HandleRedistribute(request).ok());
  ASSERT_TRUE(h->producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      round, 7, SubplanId{1, 2, 0}, std::move(processed0),
                      std::move(retained0), 0))
                  .ok());
  ASSERT_TRUE(h->producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      round, 7, SubplanId{1, 2, 1}, std::move(processed1), {},
                      0))
                  .ok());
  ASSERT_FALSE(h->producer->round_in_flight());
}

TEST(ExchangeProducerTest, ReplyNamingAckedSeqsMarksNothing) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  h.producer->OnAck(AckPayload(7, SubplanId{1, 2, 1}, {2}));
  // A reply still names acked seq 2 (processed sets never shrink); it
  // must not claim seq 3, the record after it.
  RunRound(&h, 1, /*processed0=*/{2, 4}, /*retained0=*/{});
  EXPECT_EQ(h.producer->stats().resent_tuples, 4u);  // 1, 3, 5, 6
  EXPECT_EQ(h.producer->log().Find(2), nullptr);
  EXPECT_EQ(h.producer->log().Find(4)->claimed_by, 0);
  // Recalled and re-routed records come back unclaimed.
  for (const uint64_t seq : {1, 3, 5, 6}) {
    ASSERT_NE(h.producer->log().Find(seq), nullptr) << seq;
    EXPECT_EQ(h.producer->log().Find(seq)->claimed_by, -1) << seq;
    EXPECT_EQ(h.producer->log().Find(seq)->round_claim, 0u) << seq;
  }
}

TEST(ExchangeProducerTest, ClaimOfDeadConsumerIsRecalled) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  RunRound(&h, 1, /*processed0=*/{}, /*retained0=*/{}, /*processed1=*/{2});
  EXPECT_EQ(h.producer->stats().resent_tuples, 3u);
  EXPECT_EQ(h.producer->log().Find(2)->claimed_by, 1);

  // Consumer 1 crashes: its claim no longer protects seq 2.
  RedistributeRequestPayload recovery(2, 2, {1.0, 0.0}, true, {1});
  ASSERT_TRUE(h.producer->HandleRedistribute(recovery).ok());
  ASSERT_TRUE(h.producer
                  ->HandleStateMoveReply(StateMoveReplyPayload(
                      2, 7, SubplanId{1, 2, 0}, {}, {}, 0))
                  .ok());
  EXPECT_FALSE(h.producer->round_in_flight());
  // All four records are recalled again: three unclaimed, one claimed by
  // the dead consumer.
  EXPECT_EQ(h.producer->stats().resent_tuples, 3u + 4u);
  EXPECT_EQ(h.producer->log().Find(2)->claimed_by, -1);
}

TEST(ExchangeProducerTest, RetainedClaimSuppressesItsOwnRoundOnly) {
  Harness h(PolicyKind::kWeightedRoundRobin);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.producer->Offer(KeyTuple("k")).ok());
  }
  RunRound(&h, 1, /*processed0=*/{}, /*retained0=*/{3});
  EXPECT_EQ(h.producer->stats().resent_tuples, 3u);  // not seq 3
  EXPECT_EQ(h.producer->log().Find(3)->claimed_by, -1);

  // The next round's replies do not name seq 3: it is recalled now.
  RunRound(&h, 2, /*processed0=*/{}, /*retained0=*/{});
  EXPECT_EQ(h.producer->stats().resent_tuples, 3u + 4u);
}

TEST(ExchangeProducerTest, OnAckedHookFires) {
  OutputWiring wiring;
  wiring.desc.id = 1;
  wiring.desc.policy = PolicyKind::kWeightedRoundRobin;
  SubplanId cid{1, 2, 0};
  wiring.consumers.push_back(ConsumerEndpoint{cid, Address{2, "c"}});
  wiring.initial_weights = {1.0};
  ExchangeProducer::Hooks hooks;
  hooks.send = [](int, PayloadPtr) { return Status::OK(); };
  hooks.submit_work = [](double, std::function<void()> done) {
    if (done) done();
  };
  std::vector<uint64_t> acked;
  hooks.on_acked = [&acked](const std::vector<uint64_t>& seqs) {
    acked.insert(acked.end(), seqs.begin(), seqs.end());
  };
  ExchangeProducer producer(SubplanId{1, 0, 0}, wiring, {},
                            std::move(hooks));
  ASSERT_TRUE(producer.Open().ok());
  ASSERT_TRUE(producer.Offer(KeyTuple("k")).ok());
  producer.OnAck(AckPayload(1, cid, {1}));
  EXPECT_EQ(acked, (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace gqp
