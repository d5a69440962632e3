// Table-driven EVM opcode semantics: every arithmetic/comparison/bitwise
// opcode is checked against Yellow-Paper edge cases (zero divisors, signed
// minimum values, shift saturation, overflow wrapping) by running tiny
// programs through the interpreter. Complements the random property sweep in
// evm_test.cc with curated corner cases.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace frn {
namespace {

struct OpCase {
  const char* name;
  // Operands pushed in reverse order (b first, a on top => op computes f(a,b)).
  const char* a;
  const char* b;
  const char* mnemonic;
  const char* expected;
};

// Without a printer gtest lists the parameter as a byte dump of the five
// pointers above, which differs on every run under ASLR; ctest registers that
// text as part of each test's name, so the names would too.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

// 2^255 (the most negative two's-complement value).
constexpr const char* kMin =
    "0x8000000000000000000000000000000000000000000000000000000000000000";
// -1
constexpr const char* kNeg1 =
    "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
// -2
constexpr const char* kNeg2 =
    "0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe";

const OpCase kCases[] = {
    // ---- DIV/MOD by zero: defined as zero ----
    {"div_by_zero", "0x5", "0x0", "DIV", "0x0"},
    {"mod_by_zero", "0x5", "0x0", "MOD", "0x0"},
    {"sdiv_by_zero", kNeg1, "0x0", "SDIV", "0x0"},
    {"smod_by_zero", kNeg1, "0x0", "SMOD", "0x0"},
    // ---- SDIV overflow corner: MIN / -1 == MIN (wraps) ----
    {"sdiv_min_by_neg1", kMin, kNeg1, "SDIV", kMin},
    // ---- Signed semantics ----
    {"sdiv_neg_pos", kNeg2, "0x2", "SDIV", kNeg1},
    {"smod_sign_follows_dividend", kNeg1, "0x2", "SMOD", kNeg1},
    {"slt_negative_less", kNeg1, "0x1", "SLT", "0x1"},
    {"sgt_positive_greater", "0x1", kNeg1, "SGT", "0x1"},
    {"slt_equal_false", "0x7", "0x7", "SLT", "0x0"},
    // ---- Wrapping ----
    {"add_wraps", kNeg1, "0x1", "ADD", "0x0"},
    {"sub_wraps", "0x0", "0x1", "SUB", kNeg1},
    {"mul_wraps", kMin, "0x2", "MUL", "0x0"},
    // ---- Comparisons ----
    {"lt_true", "0x1", "0x2", "LT", "0x1"},
    {"lt_false_equal", "0x2", "0x2", "LT", "0x0"},
    {"gt_unsigned_neg1_is_max", kNeg1, "0x1", "GT", "0x1"},
    {"eq_wide", kMin, kMin, "EQ", "0x1"},
    // ---- Bitwise ----
    {"and_mask", "0xff00ff", "0x00ffff", "AND", "0xff"},
    {"or_merge", "0xf0", "0x0f", "OR", "0xff"},
    {"xor_self_zero", kNeg1, kNeg1, "XOR", "0x0"},
    // ---- BYTE ----
    {"byte_msb", "0x0", kMin, "BYTE", "0x80"},
    {"byte_out_of_range", "0x20", kNeg1, "BYTE", "0x0"},
    // ---- Shifts ----
    {"shl_basic", "0x4", "0x1", "SHL", "0x10"},
    {"shl_saturates", "0x100", "0x1", "SHL", "0x0"},
    {"shr_basic", "0x4", "0x10", "SHR", "0x1"},
    {"shr_saturates", "0x100", kNeg1, "SHR", "0x0"},
    {"sar_negative_fills", "0x4", kNeg1, "SAR", kNeg1},
    {"sar_saturates_negative", "0x100", kMin, "SAR", kNeg1},
    {"sar_saturates_positive", "0x100", "0x7", "SAR", "0x0"},
    // ---- SIGNEXTEND ----
    {"signextend_byte0_neg", "0x0", "0x80", "SIGNEXTEND",
     "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff80"},
    {"signextend_byte0_pos", "0x0", "0x7f", "SIGNEXTEND", "0x7f"},
    {"signextend_noop", "0x1f", "0x1234", "SIGNEXTEND", "0x1234"},
    // ---- EXP ----
    {"exp_zero_zero", "0x0", "0x0", "EXP", "0x1"},
    {"exp_wraps", "0x2", "0x100", "EXP", "0x0"},
};

class OpcodeSemantics : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpcodeSemantics, MatchesYellowPaper) {
  const OpCase& c = GetParam();
  TestWorld world;
  Address sender = world.Fund(1);
  // EXP takes (base, exponent) with base on top; our table's `a` is the top
  // operand for every opcode.
  std::string src = std::string("PUSH ") + c.b + "\nPUSH " + c.a + "\n" + c.mnemonic +
                    "\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN";
  Address target = world.DeployAsm(100, src);
  ExecResult r = world.Run(world.MakeTx(sender, target, {}));
  ASSERT_TRUE(r.ok()) << c.name;
  EXPECT_EQ(U256::FromBigEndian(r.return_data.data(), 32), U256::FromHex(c.expected))
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(Table, OpcodeSemantics, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return std::string(info.param.name);
                         });

// Ternary opcode corners.
TEST(TernarySemantics, AddmodMulmodCorners) {
  TestWorld world;
  Address sender = world.Fund(1);
  auto eval = [&](const std::string& snippet) {
    Address target = world.DeployAsm(100, snippet + "\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN");
    ExecResult r = world.Run(world.MakeTx(sender, target, {}));
    EXPECT_TRUE(r.ok());
    return U256::FromBigEndian(r.return_data.data(), 32);
  };
  // ADDMOD with modulus 0 => 0.
  EXPECT_EQ(eval("PUSH 0\nPUSH 5\nPUSH 5\nADDMOD"), U256());
  // The sum uses a 512-bit intermediate (no 256-bit wrap-around): the result
  // differs from the wrapped (a+b) % m.
  EXPECT_NE(U256::AddMod(U256::FromHex(kNeg1), U256::FromHex(kNeg1), U256(7)),
            (U256::FromHex(kNeg1) + U256::FromHex(kNeg1)) % U256(7));
  EXPECT_EQ(eval(std::string("PUSH 7\nPUSH ") + kNeg1 + "\nPUSH " + kNeg1 + "\nADDMOD"),
            U256::AddMod(U256::FromHex(kNeg1), U256::FromHex(kNeg1), U256(7)));
  EXPECT_EQ(eval(std::string("PUSH 9\nPUSH ") + kNeg1 + "\nPUSH " + kNeg1 + "\nMULMOD"),
            U256::MulMod(U256::FromHex(kNeg1), U256::FromHex(kNeg1), U256(9)));
}

// Stack-manipulation semantics: DUP/SWAP depth behaviour.
TEST(StackSemantics, DupSwapDepths) {
  TestWorld world;
  Address sender = world.Fund(1);
  // Push 1..16, SWAP16 exchanges top with the 17th... we only have 16, so
  // SWAP15 exchanges the top (16) with the 1 at the bottom.
  std::string src;
  for (int i = 1; i <= 16; ++i) {
    src += "PUSH " + std::to_string(i) + "\n";
  }
  src += "SWAP15\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN";
  Address target = world.DeployAsm(100, src);
  ExecResult r = world.Run(world.MakeTx(sender, target, {}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(U256::FromBigEndian(r.return_data.data(), 32), U256(1));

  // DUP16 duplicates the 16th element.
  std::string src2;
  for (int i = 1; i <= 16; ++i) {
    src2 += "PUSH " + std::to_string(i) + "\n";
  }
  src2 += "DUP16\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN";
  Address target2 = world.DeployAsm(101, src2);
  ExecResult r2 = world.Run(world.MakeTx(sender, target2, {}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(U256::FromBigEndian(r2.return_data.data(), 32), U256(1));
}

// Gas edge: exactly enough gas for the intrinsic cost executes an empty call.
TEST(GasSemantics, ExactIntrinsicSucceedsOnPlainTransfer) {
  TestWorld world;
  Address sender = world.Fund(1);
  Transaction tx = world.MakeTx(sender, Address::FromId(2), {}, U256(1));
  tx.gas_limit = GasSchedule::kTxBase;
  ExecResult r = world.Run(tx);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.gas_used, GasSchedule::kTxBase);
  tx.gas_limit = GasSchedule::kTxBase - 1;
  tx.nonce += 1;
  EXPECT_EQ(world.Run(tx).status, ExecStatus::kOutOfGas);
}

// Calldata cost: zero bytes are cheaper than non-zero bytes.
TEST(GasSemantics, CalldataByteCosts) {
  Transaction tx;
  tx.data = Bytes{0, 0, 0, 0};
  uint64_t zeros = tx.IntrinsicGas();
  tx.data = Bytes{1, 2, 3, 4};
  uint64_t nonzeros = tx.IntrinsicGas();
  EXPECT_EQ(zeros, GasSchedule::kTxBase + 4 * GasSchedule::kTxDataZeroByte);
  EXPECT_EQ(nonzeros, GasSchedule::kTxBase + 4 * GasSchedule::kTxDataNonZeroByte);
}

// Memory expansion cost is quadratic at large offsets: writing very far out
// of range exhausts gas rather than succeeding.
TEST(GasSemantics, QuadraticMemoryExpansion) {
  TestWorld world;
  Address sender = world.Fund(1);
  Address target = world.DeployAsm(100, "PUSH 1\nPUSH 0x400000\nMSTORE\nSTOP");
  Transaction tx = world.MakeTx(sender, target, {});
  tx.gas_limit = 100'000;
  EXPECT_EQ(world.Run(tx).status, ExecStatus::kOutOfGas);
}

}  // namespace
}  // namespace frn
