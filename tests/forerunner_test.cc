// Tests of the Forerunner node components: speculator records, predictor
// packing/futures, accelerator strategies, prefetcher, and the Node lifecycle.
#include "src/forerunner/node.h"

#include <gtest/gtest.h>

#include "src/contracts/contracts.h"
#include "tests/test_util.h"

namespace frn {
namespace {

class SpeculatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    observer_ = world_.Fund(1);
    rival_ = world_.Fund(2);
    feed_ = world_.Deploy(50, PriceFeed::Code());
    world_.state().SetStorage(feed_, U256(0), U256(3'990'300));
    world_.state().SetStorage(feed_, PriceFeed::PriceSlot(U256(3'990'300)), U256(2000));
    world_.state().SetStorage(feed_, PriceFeed::CountSlot(U256(3'990'300)), U256(4));
    root_ = world_.state().Commit();
    world_.block().timestamp = 3'990'462;
  }

  TestWorld world_;
  Address observer_, rival_, feed_;
  Hash root_;
};

TEST_F(SpeculatorTest, MultiFutureAccumulatesPathsAndRecords) {
  Speculator speculator(&world_.trie());
  Transaction tx = world_.MakeTx(observer_, feed_,
                                 PriceFeed::SubmitCall(U256(3'990'300), U256(1980)));
  TxSpeculation spec;
  // Future 1: as-is.
  FutureContext fc1{world_.block(), {}};
  EXPECT_TRUE(speculator.SpeculateFuture(root_, tx, fc1, &spec));
  // Future 2: a rival submission lands first (FC2-style reordering).
  Transaction rival_tx = world_.MakeTx(rival_, feed_,
                                       PriceFeed::SubmitCall(U256(3'990'300), U256(2050)));
  FutureContext fc2{world_.block(), {rival_tx}};
  EXPECT_TRUE(speculator.SpeculateFuture(root_, tx, fc2, &spec));
  EXPECT_EQ(spec.futures, 2u);
  EXPECT_EQ(spec.records.size(), 2u);
  EXPECT_TRUE(spec.has_ap);
  EXPECT_EQ(spec.merge_failures, 0u);
  EXPECT_GT(spec.synthesis_seconds, 0.0);
  // The speculation never touched the committed state.
  StateDb check(&world_.trie(), root_);
  EXPECT_EQ(check.GetStorage(feed_, PriceFeed::CountSlot(U256(3'990'300))), U256(4));
}

TEST_F(SpeculatorTest, RecordsCarryConcreteWriteSet) {
  Speculator speculator(&world_.trie());
  Transaction tx = world_.MakeTx(observer_, feed_,
                                 PriceFeed::SubmitCall(U256(3'990'300), U256(1980)));
  TxSpeculation spec;
  ASSERT_TRUE(speculator.SpeculateFuture(root_, tx, FutureContext{world_.block(), {}}, &spec));
  ASSERT_EQ(spec.records.size(), 1u);
  const FutureRecord& record = spec.records[0];
  EXPECT_FALSE(record.reads.empty());
  ASSERT_EQ(record.storage_writes.size(), 2u);  // counts + prices
  EXPECT_TRUE(record.result.ok());
}

TEST(PredictorTest, PacksByPriceWithNonceChains) {
  PredictorOptions options;
  MultiFuturePredictor predictor(options);
  Address alice = Address::FromId(1);
  Address bob = Address::FromId(2);
  Address target = Address::FromId(99);
  std::vector<PendingTx> pool;
  auto make = [&](uint64_t id, Address sender, uint64_t nonce, uint64_t price) {
    Transaction tx;
    tx.id = id;
    tx.sender = sender;
    tx.to = target;
    tx.nonce = nonce;
    tx.gas_price = U256(price);
    tx.gas_limit = 100'000;
    return PendingTx{tx, 0.0};
  };
  // Alice nonce 1 is missing: nonce 2 must not be predicted.
  pool.push_back(make(1, alice, 0, 100));
  pool.push_back(make(2, alice, 2, 500));
  pool.push_back(make(3, bob, 0, 50));
  std::unordered_map<Address, uint64_t, AddressHasher> nonces;
  Rng rng(7);
  BlockContext head;
  head.timestamp = 1000;
  auto predictions = predictor.PredictNextBlock(MempoolView(&pool), head, nonces, 15'000'000, &rng);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].tx.id, 1u);  // alice nonce 0 (price is irrelevant: chain order)
  EXPECT_EQ(predictions[1].tx.id, 3u);
  // Futures constructed for each, with predicted headers in the future.
  EXPECT_FALSE(predictions[0].futures.empty());
  EXPECT_GT(predictions[0].futures[0].header.timestamp, head.timestamp);
}

TEST(PredictorTest, InterdependentTxsGetOrderingVariants) {
  PredictorOptions options;
  options.max_futures_per_tx = 4;
  MultiFuturePredictor predictor(options);
  Address target = Address::FromId(99);
  std::vector<PendingTx> pool;
  for (uint64_t i = 0; i < 3; ++i) {
    Transaction tx;
    tx.id = i + 1;
    tx.sender = Address::FromId(10 + i);
    tx.to = target;  // same receiver: one dependency group
    tx.nonce = 0;
    tx.gas_price = U256(100 - i);  // distinct priorities
    tx.gas_limit = 100'000;
    pool.push_back(PendingTx{tx, 0.0});
  }
  std::unordered_map<Address, uint64_t, AddressHasher> nonces;
  Rng rng(7);
  BlockContext head;
  auto predictions = predictor.PredictNextBlock(MempoolView(&pool), head, nonces, 15'000'000, &rng);
  ASSERT_EQ(predictions.size(), 3u);
  // The lowest-priority tx sees the other two ahead of it in some future and
  // none ahead in another.
  const TxPrediction& last = predictions[2];
  bool has_with_preds = false;
  bool has_without_preds = false;
  for (const FutureContext& fc : last.futures) {
    if (fc.predecessors.size() == 2) {
      has_with_preds = true;
    }
    if (fc.predecessors.empty()) {
      has_without_preds = true;
    }
  }
  EXPECT_TRUE(has_with_preds);
  EXPECT_TRUE(has_without_preds);
}

TEST(AcceleratorTest, StrategyNamesExist) {
  EXPECT_STREQ(StrategyName(ExecStrategy::kBaseline), "Baseline");
  EXPECT_STREQ(StrategyName(ExecStrategy::kForerunner), "Forerunner");
}

class AcceleratorStrategyTest : public SpeculatorTest {};

TEST_F(AcceleratorStrategyTest, PerfectMatchCommitsOnIdenticalContext) {
  Speculator speculator(&world_.trie());
  Transaction tx = world_.MakeTx(observer_, feed_,
                                 PriceFeed::SubmitCall(U256(3'990'300), U256(1980)));
  TxSpeculation spec;
  ASSERT_TRUE(speculator.SpeculateFuture(root_, tx, FutureContext{world_.block(), {}}, &spec));

  // Identical actual context: the record matches and is committed.
  StateDb state(&world_.trie(), root_);
  AccelOutcome out =
      Accelerator::Execute(&state, world_.block(), tx, &spec, ExecStrategy::kPerfectMatch);
  EXPECT_TRUE(out.accelerated);
  EXPECT_TRUE(out.perfect);
  EXPECT_EQ(state.GetStorage(feed_, PriceFeed::CountSlot(U256(3'990'300))), U256(5));
  EXPECT_EQ(state.GetNonce(observer_), tx.nonce + 1);

  // Compare against the reference EVM execution.
  StateDb ref(&world_.trie(), root_);
  Evm evm(&ref, world_.block());
  ExecResult r = evm.ExecuteTransaction(tx);
  EXPECT_EQ(out.result, r);
  EXPECT_EQ(state.Commit(), ref.Commit());
}

TEST_F(AcceleratorStrategyTest, PerfectMatchFailsOnAnyValueChange) {
  Speculator speculator(&world_.trie());
  Transaction tx = world_.MakeTx(observer_, feed_,
                                 PriceFeed::SubmitCall(U256(3'990'300), U256(1980)));
  TxSpeculation spec;
  ASSERT_TRUE(speculator.SpeculateFuture(root_, tx, FutureContext{world_.block(), {}}, &spec));

  // A different timestamp (even within the same round) breaks perfect match...
  BlockContext shifted = world_.block();
  shifted.timestamp += 16;
  StateDb state(&world_.trie(), root_);
  AccelOutcome out =
      Accelerator::Execute(&state, shifted, tx, &spec, ExecStrategy::kPerfectMatch);
  EXPECT_FALSE(out.accelerated);  // fell back to the EVM
  // ...but the fallback is still correct.
  StateDb ref(&world_.trie(), root_);
  Evm evm(&ref, shifted);
  ExecResult r = evm.ExecuteTransaction(tx);
  EXPECT_EQ(out.result, r);
  EXPECT_EQ(state.Commit(), ref.Commit());
}

TEST_F(AcceleratorStrategyTest, ForerunnerToleratesTheSameShift) {
  Speculator speculator(&world_.trie());
  Transaction tx = world_.MakeTx(observer_, feed_,
                                 PriceFeed::SubmitCall(U256(3'990'300), U256(1980)));
  TxSpeculation spec;
  ASSERT_TRUE(speculator.SpeculateFuture(root_, tx, FutureContext{world_.block(), {}}, &spec));
  BlockContext shifted = world_.block();
  shifted.timestamp += 16;
  StateDb state(&world_.trie(), root_);
  AccelOutcome out =
      Accelerator::Execute(&state, shifted, tx, &spec, ExecStrategy::kForerunner);
  EXPECT_TRUE(out.accelerated);  // CD-Equiv holds where perfect match fails
}

TEST_F(AcceleratorStrategyTest, NullSpeculationRunsEvm) {
  Transaction tx = world_.MakeTx(observer_, feed_,
                                 PriceFeed::SubmitCall(U256(3'990'300), U256(1980)));
  StateDb state(&world_.trie(), root_);
  AccelOutcome out =
      Accelerator::Execute(&state, world_.block(), tx, nullptr, ExecStrategy::kForerunner);
  EXPECT_FALSE(out.accelerated);
  EXPECT_TRUE(out.result.ok());
}

TEST(NodeTest, HeardPoolAndSpeculationLifecycle) {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  Address sender = Address::FromId(1);
  Address registry = Address::FromId(90);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(sender, U256::Exp(U256(10), U256(21)));
    state->SetCode(registry, Registry::Code());
  };
  Node node(options, genesis);
  NodeOptions baseline_options = options;
  baseline_options.strategy = ExecStrategy::kBaseline;
  Node baseline(baseline_options, genesis);
  ASSERT_EQ(node.head_root(), baseline.head_root());

  Transaction tx;
  tx.id = 1;
  tx.sender = sender;
  tx.to = registry;
  tx.data = EncodeCall(Registry::kSet, {U256(1), U256(11)});
  tx.gas_limit = 150'000;
  tx.gas_price = U256(1'000'000'000);
  tx.nonce = 0;

  node.OnHeard(tx, 1.0);
  baseline.OnHeard(tx, 1.0);
  EXPECT_EQ(node.pool_size(), 1u);
  node.RunSpeculationPipeline(1.5);
  baseline.RunSpeculationPipeline(1.5);
  EXPECT_EQ(node.futures_speculated(), 2u);  // two header variants

  Block block;
  block.header.number = 1;
  block.header.timestamp = 1'700'000'013;
  block.header.coinbase = Address::FromId(0xC0FFEE);
  block.txs = {tx};
  BlockExecReport fr = node.ExecuteBlock(block, 13.0);
  BlockExecReport bl = baseline.ExecuteBlock(block, 13.0);
  ASSERT_EQ(fr.txs.size(), 1u);
  EXPECT_TRUE(fr.txs[0].heard);
  EXPECT_TRUE(fr.txs[0].speculated);
  EXPECT_TRUE(fr.txs[0].accelerated);
  EXPECT_EQ(fr.state_root, bl.state_root);  // §5.2 Merkle-root agreement
  EXPECT_EQ(node.pool_size(), 0u);          // executed tx left the pool
}

TEST(NodeTest, UnheardTransactionExecutesUnaccelerated) {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  Address sender = Address::FromId(1);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(sender, U256::Exp(U256(10), U256(21)));
  };
  Node node(options, genesis);
  Transaction tx;
  tx.id = 7;
  tx.sender = sender;
  tx.to = Address::FromId(2);
  tx.value = U256(5);
  tx.gas_limit = 30'000;
  tx.gas_price = U256(1'000'000'000);
  Block block;
  block.header.number = 1;
  block.header.timestamp = 1'700'000'013;
  block.txs = {tx};
  BlockExecReport report = node.ExecuteBlock(block, 13.0);
  ASSERT_EQ(report.txs.size(), 1u);
  EXPECT_FALSE(report.txs[0].heard);
  EXPECT_FALSE(report.txs[0].accelerated);
  EXPECT_EQ(report.txs[0].status, ExecStatus::kSuccess);
}

}  // namespace
}  // namespace frn
