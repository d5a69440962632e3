// Tests of the optimistic intra-block parallel executor: edge cases (empty
// block, single transaction), deterministic conflict accounting on a fully
// serialized shared-counter workload, aborts surfacing during re-execution,
// the fee-account-sender serial fallback, and a TSan stress run joining the
// executor's worker threads with concurrent snapshot readers. Node roots
// across block_workers counts, speculation-fed attempts included, are the
// §5.2 oracle's (tests/oracle_test.cc).
#include "src/forerunner/parallel_exec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/contracts/contracts.h"
#include "src/crypto/keccak.h"
#include "src/forerunner/accelerator.h"
#include "src/obs/registry.h"
#include "src/state/block_stm.h"
#include "src/state/versioned_state.h"
#include "tests/test_util.h"

namespace frn {
namespace {

std::vector<const TxSpeculation*> NoSpecs(size_t n) {
  return std::vector<const TxSpeculation*>(n, nullptr);
}

// Serial reference: executes `txs` in order on a fresh state view at `root`
// and returns the committed root plus per-tx outcomes.
Hash RunSerial(Mpt* trie, const Hash& root, const BlockContext& header,
               const std::vector<Transaction>& txs, std::vector<AccelOutcome>* outcomes) {
  StateDb db(trie, root);
  for (const Transaction& tx : txs) {
    AccelOutcome outcome =
        Accelerator::Execute(&db, header, tx, nullptr, ExecStrategy::kBaseline);
    if (outcomes != nullptr) {
      outcomes->push_back(std::move(outcome));
    }
  }
  return db.Commit();
}

// Parallel merge: applies converged write sets in transaction order on a
// fresh state view at `root` (what Node::ExecuteTxsParallel does) and commits.
Hash MergeAndCommit(Mpt* trie, const Hash& root, const BlockContext& header,
                    const std::vector<ParallelTxResult>& results) {
  StateDb db(trie, root);
  for (const ParallelTxResult& r : results) {
    db.ApplyWriteSet(r.writes, header.coinbase);
  }
  return db.Commit();
}

TEST(BlockStmTest, EmptyBlockConvergesTrivially) {
  TestWorld world;
  const Hash root = world.state().Commit();
  ParallelBlockExecutor exec(&world.trie(), nullptr, 4);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  ASSERT_TRUE(exec.ExecuteBlock(root, world.block(), {}, {}, ExecStrategy::kBaseline,
                                &results, &stats));
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.executions, 0u);
  EXPECT_FALSE(stats.fallback_serial);
}

TEST(BlockStmTest, SingleTxMatchesSerial) {
  TestWorld world;
  Address sender = world.Fund(1);
  std::vector<Transaction> txs = {
      world.MakeTx(sender, Address::FromId(2), {}, U256(1234))};
  const Hash root = world.state().Commit();

  std::vector<AccelOutcome> serial_outcomes;
  const Hash serial_root =
      RunSerial(&world.trie(), root, world.block(), txs, &serial_outcomes);

  ParallelBlockExecutor exec(&world.trie(), nullptr, 4);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  ASSERT_TRUE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(1),
                                ExecStrategy::kBaseline, &results, &stats));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(results[0].outcome.result.status, serial_outcomes[0].result.status);
  EXPECT_EQ(results[0].outcome.result.gas_used, serial_outcomes[0].result.gas_used);
  EXPECT_EQ(MergeAndCommit(&world.trie(), root, world.block(), results), serial_root);
}

TEST(BlockStmTest, DisjointTransfersCommitInOneRound) {
  TestWorld world;
  Address token = world.Deploy(500, Token::Code());
  constexpr size_t kTxs = 8;
  std::vector<Transaction> txs;
  for (size_t i = 0; i < kTxs; ++i) {
    Address sender = world.Fund(i + 1);
    world.state().SetStorage(token, Token::BalanceSlot(sender), U256(1'000'000));
    txs.push_back(world.MakeTx(
        sender, token,
        EncodeCall(Token::kTransfer, {Address::FromId(i + 100).ToU256(), U256(250)})));
  }
  const Hash root = world.state().Commit();
  const Hash serial_root = RunSerial(&world.trie(), root, world.block(), txs, nullptr);

  ParallelBlockExecutor exec(&world.trie(), nullptr, 4);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  ASSERT_TRUE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(kTxs),
                                ExecStrategy::kBaseline, &results, &stats));
  // Disjoint senders, holders and slots: every attempt validates first try.
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.reexecutions, 0u);
  EXPECT_EQ(stats.executions, kTxs);
  EXPECT_EQ(MergeAndCommit(&world.trie(), root, world.block(), results), serial_root);
}

TEST(BlockStmTest, SharedCounterConflictsAreDeterministic) {
  TestWorld world;
  Address feed = world.Deploy(600, PriceFeed::Code());
  // Every transaction submits to the block's active round: all of them read
  // and write the same count/price slots, so the schedule degenerates to
  // serial — one prefix extension per round.
  const uint64_t ts = world.block().timestamp;
  const U256 round_id(ts - ts % 300);
  constexpr size_t kTxs = 6;
  std::vector<Transaction> txs;
  for (size_t i = 0; i < kTxs; ++i) {
    Address sender = world.Fund(i + 1);
    txs.push_back(
        world.MakeTx(sender, feed, PriceFeed::SubmitCall(round_id, U256(1900 + i))));
  }
  const Hash root = world.state().Commit();
  const Hash serial_root = RunSerial(&world.trie(), root, world.block(), txs, nullptr);
  // The contract must actually be accumulating (the conflict assertions below
  // are vacuous over a reverting workload).
  StateDb check(&world.trie(), serial_root);
  EXPECT_EQ(check.GetStorage(feed, PriceFeed::CountSlot(round_id)), U256(kTxs));

  for (size_t workers : {2u, 4u}) {
    ParallelBlockExecutor exec(&world.trie(), nullptr, workers);
    std::vector<ParallelTxResult> results;
    ParallelBlockStats stats;
    ASSERT_TRUE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(kTxs),
                                  ExecStrategy::kBaseline, &results, &stats));
    // Fully serialized schedule, deterministic at any worker count: exactly
    // one transaction commits per round, every higher index fails validation.
    EXPECT_EQ(stats.rounds, kTxs) << "workers " << workers;
    EXPECT_EQ(stats.conflicts, kTxs - 1) << "workers " << workers;
    EXPECT_EQ(stats.validation_failures, kTxs * (kTxs - 1) / 2) << "workers " << workers;
    EXPECT_EQ(stats.executions, kTxs * (kTxs + 1) / 2) << "workers " << workers;
    EXPECT_EQ(MergeAndCommit(&world.trie(), root, world.block(), results), serial_root)
        << "workers " << workers;
  }
}

TEST(BlockStmTest, AbortDuringReexecutionMatchesSerial) {
  TestWorld world;
  Address sender = world.Fund(1, U256::Exp(U256(10), U256(18)));
  // tx0 drains most of the balance; tx1 (next nonce, same sender) only fits
  // the pre-block balance. Its first attempt fails the nonce check against
  // the pre-block snapshot, conflicts with tx0's account write, and its
  // re-execution aborts on insufficient balance — exactly like serial.
  Transaction tx0 = world.MakeTx(sender, Address::FromId(2), {},
                                 U256(9) * U256::Exp(U256(10), U256(17)));
  Transaction tx1 = world.MakeTx(sender, Address::FromId(3), {},
                                 U256(2) * U256::Exp(U256(10), U256(17)));
  tx1.nonce = 1;
  std::vector<Transaction> txs = {tx0, tx1};
  const Hash root = world.state().Commit();

  std::vector<AccelOutcome> serial_outcomes;
  const Hash serial_root =
      RunSerial(&world.trie(), root, world.block(), txs, &serial_outcomes);
  ASSERT_EQ(serial_outcomes[0].result.status, ExecStatus::kSuccess);
  ASSERT_EQ(serial_outcomes[1].result.status, ExecStatus::kInsufficientBalance);

  ParallelBlockExecutor exec(&world.trie(), nullptr, 2);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  ASSERT_TRUE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(2),
                                ExecStrategy::kBaseline, &results, &stats));
  EXPECT_EQ(results[0].outcome.result.status, ExecStatus::kSuccess);
  EXPECT_EQ(results[1].outcome.result.status, ExecStatus::kInsufficientBalance);
  EXPECT_EQ(results[1].attempts, 2u);
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_EQ(MergeAndCommit(&world.trie(), root, world.block(), results), serial_root);
}

TEST(BlockStmTest, FeeAccountSenderFallsBackToSerial) {
  TestWorld world;
  Address sender = world.Fund(1);
  world.state().AddBalance(world.block().coinbase, U256::Exp(U256(10), U256(21)));
  Transaction from_coinbase =
      world.MakeTx(world.block().coinbase, Address::FromId(9), {}, U256(1));
  std::vector<Transaction> txs = {world.MakeTx(sender, Address::FromId(2), {}, U256(5)),
                                  from_coinbase};
  const Hash root = world.state().Commit();

  ParallelBlockExecutor exec(&world.trie(), nullptr, 2);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  // The commutative fee exemption is unsound when the fee account sends;
  // the executor refuses the block and reports the serial fallback.
  EXPECT_FALSE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(2),
                                 ExecStrategy::kBaseline, &results, &stats));
  EXPECT_TRUE(stats.fallback_serial);
  EXPECT_EQ(stats.executions, 0u);
}

TEST(BlockStmTest, CoinbaseBalanceReadFallsBackToSerial) {
  TestWorld world;
  // A contract that stores the *fee account's* balance: COINBASE pushes the
  // fee address, BALANCE reads it, SSTORE pins the value into storage. Under
  // the commutative fee exemption that read would see a pre-block balance
  // missing the fees of lower-indexed transactions, so the executor must
  // refuse the block (PR 7's documented limitation, now lifted).
  Address snooper = world.DeployAsm(700, R"(
    COINBASE
    BALANCE
    PUSH 0
    SSTORE
    STOP
  )");
  Address a = world.Fund(1);
  Address b = world.Fund(2);
  std::vector<Transaction> txs = {world.MakeTx(a, Address::FromId(9), {}, U256(5)),
                                  world.MakeTx(b, snooper, {})};
  const Hash root = world.state().Commit();

  Counter* fee_fallbacks =
      MetricsRegistry::Global().GetCounter("exec.fee_balance_fallbacks");
  const uint64_t fallbacks_before = fee_fallbacks->value();

  ParallelBlockExecutor exec(&world.trie(), nullptr, 2);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  EXPECT_FALSE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(2),
                                 ExecStrategy::kBaseline, &results, &stats));
  EXPECT_TRUE(stats.fallback_serial);
  EXPECT_EQ(fee_fallbacks->value(), fallbacks_before + 1);

  // The caller's serial path (what Node::ExecuteTxsParallel falls back to)
  // commits the block fine, and the snooper observes exactly the mid-block
  // fee balance — tx0's fee, already credited when tx1 runs — which is what
  // the commutative exemption could never have served.
  std::vector<AccelOutcome> outcomes;
  const Hash serial_root = RunSerial(&world.trie(), root, world.block(), txs, &outcomes);
  StateDb after(&world.trie(), serial_root);
  EXPECT_EQ(after.GetStorage(snooper, U256(0)),
            U256(outcomes[0].result.gas_used) * txs[0].gas_price);
}

TEST(BlockStmTest, NonCoinbaseBalanceReadsStayParallel) {
  TestWorld world;
  // Negative control for the fee-balance fallback: ADDRESS/BALANCE reads the
  // contract's *own* balance, which the multi-version memory tracks exactly —
  // no exemption involved, so the block still converges in parallel.
  Address selfcheck = world.DeployAsm(701, R"(
    ADDRESS
    BALANCE
    PUSH 0
    SSTORE
    STOP
  )");
  Address a = world.Fund(1);
  Address b = world.Fund(2);
  std::vector<Transaction> txs = {world.MakeTx(a, Address::FromId(9), {}, U256(5)),
                                  world.MakeTx(b, selfcheck, {})};
  const Hash root = world.state().Commit();
  const Hash serial_root = RunSerial(&world.trie(), root, world.block(), txs, nullptr);

  ParallelBlockExecutor exec(&world.trie(), nullptr, 2);
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  ASSERT_TRUE(exec.ExecuteBlock(root, world.block(), txs, NoSpecs(2),
                                ExecStrategy::kBaseline, &results, &stats));
  EXPECT_FALSE(stats.fallback_serial);
  EXPECT_EQ(MergeAndCommit(&world.trie(), root, world.block(), results), serial_root);
}

// TSan target (tools/run_tsan.sh): the executor's worker threads interleave
// with snapshot readers pinning and reading versions of the same store while
// blocks execute, merge and seal.
TEST(BlockStmTest, StressExecutorWithConcurrentSnapshotReaders) {
  KvStore store(TestWorld::FastStore());
  Mpt trie(&store);
  VersionedState versioned(4);
  BlockContext header;
  header.number = 1;
  header.timestamp = 1'700'000'013;
  header.coinbase = Address::FromId(0xC0FFEE);
  constexpr size_t kSenders = 8;
  constexpr uint64_t kBlocks = 6;
  // roots[k] = root after block k; writes are published to the readers via
  // the release-store on `sealed` (the versioned_state_test idiom).
  std::vector<Hash> roots(kBlocks + 1);
  std::atomic<size_t> sealed{0};
  {
    StateDb db(&trie, Mpt::EmptyRoot(), &versioned);
    for (uint64_t s = 1; s <= kSenders; ++s) {
      db.AddBalance(Address::FromId(s), U256::Exp(U256(10), U256(21)));
    }
    roots[0] = db.Commit();
  }
  sealed.store(1, std::memory_order_release);

  std::atomic<bool> stop{false};
  auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      SnapshotHandle h = versioned.AcquireAt(roots[sealed.load(std::memory_order_acquire) - 1]);
      if (!h.valid()) {
        std::this_thread::yield();
        continue;
      }
      auto account = versioned.GetAccount(h, Address::FromId(1));
      ASSERT_TRUE(account.has_value());
      EXPECT_FALSE(account->balance.IsZero());
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back(reader);
  }

  ParallelBlockExecutor exec(&trie, &versioned, 4);
  for (uint64_t n = 1; n <= kBlocks; ++n) {
    header.number = n;
    std::vector<Transaction> txs;
    for (uint64_t s = 1; s <= kSenders; ++s) {
      Transaction tx;
      tx.sender = Address::FromId(s);
      tx.to = Address::FromId(100 + s);
      tx.value = U256(n);
      tx.nonce = n - 1;
      tx.gas_limit = 30'000;
      tx.gas_price = U256(1'000'000'000);
      txs.push_back(tx);
    }
    std::vector<ParallelTxResult> results;
    ParallelBlockStats stats;
    ASSERT_TRUE(exec.ExecuteBlock(roots[n - 1], header, txs, NoSpecs(kSenders),
                                  ExecStrategy::kBaseline, &results, &stats));
    EXPECT_EQ(stats.conflicts, 0u);
    StateDb db(&trie, roots[n - 1], &versioned);
    for (const ParallelTxResult& r : results) {
      db.ApplyWriteSet(r.writes, header.coinbase);
    }
    roots[n] = db.Commit();
    sealed.store(n + 1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(versioned.stats().invalidations, 0u);
}

}  // namespace
}  // namespace frn
