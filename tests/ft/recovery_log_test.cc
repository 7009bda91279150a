#include "ft/recovery_log.h"

#include <gtest/gtest.h>

namespace gqp {
namespace {

Tuple MakeTuple(int64_t v) {
  static SchemaPtr schema = MakeSchema({{"x", DataType::kInt64}});
  return Tuple(schema, {Value(v)});
}

TEST(RecoveryLogTest, AppendAndSize) {
  RecoveryLog log;
  EXPECT_TRUE(log.empty());
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Append({2, 1, 1, MakeTuple(2)});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.Contains(1));
  EXPECT_FALSE(log.Contains(3));
}

TEST(RecoveryLogTest, AckRemoves) {
  RecoveryLog log;
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Ack(1);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.stats().acked, 1u);
}

TEST(RecoveryLogTest, AckUnknownIsNoop) {
  RecoveryLog log;
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Ack(99);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.stats().acked, 0u);
}

TEST(RecoveryLogTest, AckBatch) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 5; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.AckBatch({1, 3, 5});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.Contains(2));
  EXPECT_TRUE(log.Contains(4));
}

TEST(RecoveryLogTest, ExtractByPredicateRemovesAndReturnsInSeqOrder) {
  RecoveryLog log;
  log.Append({3, 7, 0, MakeTuple(3)});
  log.Append({1, 7, 0, MakeTuple(1)});
  log.Append({2, 9, 0, MakeTuple(2)});
  auto extracted =
      log.Extract([](const LogRecord& r) { return r.bucket == 7; });
  ASSERT_EQ(extracted.size(), 2u);
  EXPECT_EQ(extracted[0].seq, 1u);
  EXPECT_EQ(extracted[1].seq, 3u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.Contains(2));
}

TEST(RecoveryLogTest, ExtractAll) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 4; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  EXPECT_EQ(log.ExtractAll().size(), 4u);
  EXPECT_TRUE(log.empty());
}

TEST(RecoveryLogTest, ReinsertAfterReroute) {
  RecoveryLog log;
  log.Append({5, 2, 0, MakeTuple(5)});
  auto extracted = log.ExtractAll();
  extracted[0].consumer = 1;
  log.Reinsert(extracted[0]);
  EXPECT_TRUE(log.Contains(5));
  EXPECT_EQ(log.size(), 1u);
}

TEST(RecoveryLogTest, HighWatermarkTracksPeak) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 10; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.AckBatch({1, 2, 3, 4, 5});
  log.Append({11, 0, 0, MakeTuple(11)});
  EXPECT_EQ(log.stats().high_watermark, 10u);
  EXPECT_EQ(log.stats().appended, 11u);
}

TEST(RecoveryLogTest, ByteAccountingAcrossAckAndBatch) {
  RecoveryLog log;
  const uint64_t one = MakeTuple(1).WireSize();
  for (uint64_t s = 1; s <= 4; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  EXPECT_EQ(log.stats().bytes_held, 4 * one);
  EXPECT_EQ(log.stats().bytes_peak, 4 * one);

  log.Ack(2);
  EXPECT_EQ(log.stats().bytes_held, 3 * one);
  log.Ack(2);  // duplicate ack: no double reclaim
  EXPECT_EQ(log.stats().bytes_held, 3 * one);

  log.AckBatch({1, 3});
  EXPECT_EQ(log.stats().bytes_held, one);
  log.AckBatch({4});
  EXPECT_EQ(log.stats().bytes_held, 0u);
  EXPECT_EQ(log.stats().bytes_peak, 4 * one);  // peak never decays
}

TEST(RecoveryLogTest, ByteAccountingReclaimsOnExtractAndRechargesOnReinsert) {
  RecoveryLog log;
  const uint64_t one = MakeTuple(1).WireSize();
  log.Append({1, 2, 0, MakeTuple(1)});
  log.Append({2, 5, 0, MakeTuple(2)});

  auto extracted = log.Extract([](const LogRecord& r) { return r.bucket == 2; });
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(log.stats().bytes_held, one);

  // Re-routing re-charges exactly what extraction reclaimed.
  extracted[0].consumer = 1;
  log.Reinsert(extracted[0]);
  EXPECT_EQ(log.stats().bytes_held, 2 * one);

  log.ExtractAll();
  EXPECT_EQ(log.stats().bytes_held, 0u);
  EXPECT_EQ(log.stats().bytes_peak, 2 * one);
}

TEST(RecoveryLogTest, ClaimSkipsAcknowledgedSeqs) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 6; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.AckBatch({1, 2, 4});
  // A reply names every seq its consumer ever processed, many of them
  // acknowledged, below the oldest record or between live ones: those
  // mark nothing, not even a neighbour.
  log.Claim({1, 2, 4}, /*round=*/1, /*consumer=*/0);
  for (const uint64_t s : {3, 5, 6}) {
    ASSERT_NE(log.Find(s), nullptr);
    EXPECT_EQ(log.Find(s)->claimed_by, -1) << s;
    EXPECT_EQ(log.Find(s)->round_claim, 0u) << s;
  }
  EXPECT_EQ(log.Find(4), nullptr);
}

TEST(RecoveryLogTest, ClaimMarksExactlyTheNamedRecords) {
  RecoveryLog log;
  for (const uint64_t s : {2, 4, 6, 8, 10}) {
    log.Append({s, 0, 0, MakeTuple(1)});
  }
  // Interleaved with the log, below its first record and past its last.
  log.Claim({1, 4, 5, 7, 10, 12}, /*round=*/3, /*consumer=*/1);
  for (const uint64_t s : {2, 6, 8}) {
    EXPECT_EQ(log.Find(s)->claimed_by, -1) << s;
    EXPECT_EQ(log.Find(s)->round_claim, 0u) << s;
  }
  for (const uint64_t s : {4, 10}) {
    EXPECT_EQ(log.Find(s)->claimed_by, 1) << s;
    EXPECT_EQ(log.Find(s)->round_claim, 3u) << s;
  }
}

TEST(RecoveryLogTest, RetainedClaimMarksTheRoundOnly) {
  RecoveryLog log;
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Append({2, 0, 0, MakeTuple(2)});
  log.Claim({1}, /*round=*/1, /*consumer=*/0);
  // A later round's retained-only claim moves the round mark but keeps
  // the sticky processed claim.
  log.Claim({1, 2}, /*round=*/2, /*consumer=*/-1);
  EXPECT_EQ(log.Find(1)->claimed_by, 0);
  EXPECT_EQ(log.Find(1)->round_claim, 2u);
  EXPECT_EQ(log.Find(2)->claimed_by, -1);
  EXPECT_EQ(log.Find(2)->round_claim, 2u);
}

TEST(RecoveryLogTest, ReinsertedRecordComesBackUnclaimed) {
  RecoveryLog log;
  log.Append({5, 2, 0, MakeTuple(5)});
  log.Claim({5}, /*round=*/1, /*consumer=*/0);
  auto extracted = log.ExtractAll();
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(extracted[0].claimed_by, 0);
  extracted[0].consumer = 1;
  log.Reinsert(extracted[0]);
  ASSERT_NE(log.Find(5), nullptr);
  EXPECT_EQ(log.Find(5)->consumer, 1);
  EXPECT_EQ(log.Find(5)->claimed_by, -1);
  EXPECT_EQ(log.Find(5)->round_claim, 0u);
}

TEST(AckBatcherTest, SignalsAtInterval) {
  AckBatcher batcher(3);
  EXPECT_FALSE(batcher.Add(1));
  EXPECT_FALSE(batcher.Add(2));
  EXPECT_TRUE(batcher.Add(3));
  EXPECT_EQ(batcher.Drain(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(AckBatcherTest, RemoveDiscardsPendingSeq) {
  AckBatcher batcher(10);
  batcher.Add(1);
  batcher.Add(2);
  batcher.Remove(1);
  EXPECT_EQ(batcher.Drain(), (std::vector<uint64_t>{2}));
}

TEST(AckBatcherTest, ZeroIntervalTreatedAsOne) {
  AckBatcher batcher(0);
  EXPECT_TRUE(batcher.Add(1));
}

TEST(AckBatcherTest, PendingSeqsVisible) {
  AckBatcher batcher(10);
  batcher.Add(4);
  batcher.Add(7);
  EXPECT_EQ(batcher.pending_seqs(), (std::vector<uint64_t>{4, 7}));
}

}  // namespace
}  // namespace gqp
